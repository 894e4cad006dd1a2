package stable

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"testing"
)

// s1Faults is the campaign CLI's s1 storage-fault profile.
var s1Faults = FaultProfile{TornWriteRate: 0.025, BitRotRate: 0.05, StuckReadRate: 0.025}

// faultSeqResult is everything the fault-sequence golden test pins.
type faultSeqResult struct {
	stats    ReplStats
	injected MediumStats
	faults   int    // unrecoverable faults delivered to the sinks
	stores   int    // stores mounted: 1 + processors halted and replaced
	reads    string // sha256 over every value the workload read back
	media    string // sha256 over every medium's final keys and bytes
}

// runFaultSequence drives a seeded hardened store through frames of
// Get/GetInto/Put/Delete/Commit/Scrub, with an occasional Scrub before the
// commit (so staged deletions are skipped) and an occasional snapshot and
// key listing. Every operation that reads a replica consumes the faulty
// media's RNG, so any change to which replicas are read, or in which order,
// shifts the injected faults and changes the result. An unrecoverable fault
// halts the store's processor, as the fail-stop runtime does: the store is
// retired at the end of that frame and a replacement processor's store, with
// fresh media, serves the rest of the run.
func runFaultSequence(replicas, frames int) faultSeqResult {
	var res faultSeqResult
	reads, media := sha256.New(), sha256.New()
	gen := 0
	var st *Store
	halted := false
	mount := func() {
		st = NewHardenedStore(MediaProfile{Replicas: replicas, Seed: 4242, Faults: s1Faults, Oracle: true}, fmt.Sprintf("p%d", gen))
		st.SetFaultSink(func(error) { res.faults++; halted = true })
		gen++
		halted = false
	}
	retire := func() {
		rep := st.Hardened()
		res.stats.Add(rep.Stats())
		res.injected.Add(rep.InjectedStats())
		for i, m := range rep.media {
			inner := m.(*FaultyMedium).inner
			for _, k := range inner.Keys() {
				raw, _ := inner.Read(k)
				fmt.Fprintf(media, "%d\x00%d\x00%s\x00", gen, i, k)
				binary.Write(media, binary.BigEndian, uint32(len(raw)))
				media.Write(raw)
			}
		}
	}
	mount()
	rng := rand.New(rand.NewSource(17))
	key := func() string { return fmt.Sprintf("app%d/k%02d", rng.Intn(3), rng.Intn(12)) }
	var buf []byte
	for f := 0; f < frames; f++ {
		for i := 0; i < 4; i++ {
			k := key()
			v, ok := st.Get(k)
			hashRead(reads, k, v, ok)
		}
		k := key()
		var ok bool
		buf, ok = st.GetInto(buf, k)
		hashRead(reads, k, buf, ok)
		for i := 0; i < 3; i++ {
			k := key()
			if rng.Intn(8) == 0 {
				st.Delete(k)
				continue
			}
			val := make([]byte, rng.Intn(40))
			rng.Read(val)
			st.Put(k, val)
		}
		if f%7 == 3 {
			st.Scrub()
		}
		st.Commit()
		st.Scrub()
		if f%50 == 49 {
			snap := st.SnapshotPrefix("app1/")
			for _, k := range st.Keys("app1/") {
				v, ok := snap[k]
				hashRead(reads, k, v, ok)
			}
			for k, v := range st.Snapshot() {
				if k == "app0/k00" {
					hashRead(reads, k, v, true)
				}
			}
		}
		if halted {
			retire()
			mount()
		}
	}
	retire()
	res.stores = gen
	res.reads = fmt.Sprintf("%x", reads.Sum(nil))
	res.media = fmt.Sprintf("%x", media.Sum(nil))
	return res
}

func hashRead(h hash.Hash, k string, v []byte, ok bool) {
	fmt.Fprintf(h, "%s\x00%t\x00%d\x00", k, ok, len(v))
	h.Write(v)
}

// TestFaultSequenceGolden pins the exact fault sequence of a seeded hardened
// store under the s1 profile: the fault-handling counters, the injected
// counts, the values read, and every medium's final bytes. The hardened
// store's optimizations must keep every replica read, in the same order,
// and every write, so the faulty media's RNGs see the identical call
// sequence; a change that skips or reorders a replica read fails here.
func TestFaultSequenceGolden(t *testing.T) {
	for _, tc := range []struct {
		replicas int
		want     faultSeqResult
	}{
		{3, faultSeqResult{
			stats: ReplStats{Commits: 300, TornReplicaCommits: 82, CorruptionsDetected: 1037, ReadRepairs: 144,
				ScrubRepairs: 851, ScrubRuns: 343, StaleCommitRecords: 98, CommitRescues: 1, Unrecoverable: 1},
			injected: MediumStats{TornWrites: 309, BitFlips: 55, StuckReads: 1155},
			faults:   1,
			stores:   2,
			reads:    "21e59ea0eee85ba950797ea7e9d80ec6c4111928f5d8f3063c7000f36171db95",
			media:    "9eca34cf9f9169892d2bed893556cb6890efd055ec5076b2835c687e7590c456",
		}},
		{1, faultSeqResult{
			stats: ReplStats{Commits: 300, TornReplicaCommits: 29, CorruptionsDetected: 262,
				ScrubRuns: 343, StaleCommitRecords: 11, Unrecoverable: 135},
			injected: MediumStats{TornWrites: 39, BitFlips: 13, StuckReads: 182},
			faults:   75,
			stores:   42,
			reads:    "b19722094f6009b56427cbb0260a580980ff3771d64537ab003daf0bd4be9384",
			media:    "d1d590fbae3b9dcef588e4fb25ae145f3ab037505773e284d6eea395c7ffb522",
		}},
	} {
		t.Run(fmt.Sprintf("replicas=%d", tc.replicas), func(t *testing.T) {
			got := runFaultSequence(tc.replicas, 300)
			if got != tc.want {
				t.Errorf("fault sequence changed:\n got  %+v\n want %+v", got, tc.want)
			}
			if got.stats.SilentWrongData != 0 {
				t.Errorf("silent wrong data: %d", got.stats.SilentWrongData)
			}
		})
	}
}
