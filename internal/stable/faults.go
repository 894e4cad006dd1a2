package stable

import (
	"errors"
	"hash/fnv"
	"math/rand"
)

// errTornWrite is the device-level write fault a FaultyMedium raises when it
// tears mid-commit. It is internal to the storage layer: the ReplicatedStore
// absorbs it (the replica is simply behind) unless every replica tears.
var errTornWrite = errors.New("stable: medium write fault (torn)")

// FaultProfile configures the sub-fail-stop fault model of a FaultyMedium.
// These are exactly the faults the paper's clean crash model excludes: the
// hardened store must turn every one of them into either a transparent
// repair or a fail-stop halt, never into silently wrong data.
type FaultProfile struct {
	// TornWriteRate is the per-write probability that the medium loses
	// power mid-commit: the triggering write and every later write in the
	// same frame are lost, leaving the medium with a partially applied
	// batch and a stale commit record.
	TornWriteRate float64
	// BitRotRate is the per-frame probability that one stored record
	// suffers a flipped bit (persistent post-commit corruption).
	BitRotRate float64
	// StuckReadRate is the per-read probability of returning stuck-at
	// bits — a transient read fault that does not damage the stored
	// record.
	StuckReadRate float64
}

// Zero reports whether the profile injects no faults.
func (p FaultProfile) Zero() bool {
	return p.TornWriteRate == 0 && p.BitRotRate == 0 && p.StuckReadRate == 0
}

// MediumStats counts the faults a FaultyMedium actually injected. The
// campaign reports injected counts next to the store's detected/repaired
// counts; a detected count below the injected one is normal (a rotted record
// may be overwritten before anything reads it), silent wrong data is not.
type MediumStats struct {
	// TornWrites counts writes lost to mid-commit tears.
	TornWrites int64 `json:"torn_writes"`
	// BitFlips counts post-commit bit flips applied to stored records.
	BitFlips int64 `json:"bit_flips"`
	// StuckReads counts reads that returned stuck-at bits.
	StuckReads int64 `json:"stuck_reads"`
}

// Add accumulates counts from another medium.
func (s *MediumStats) Add(o MediumStats) {
	s.TornWrites += o.TornWrites
	s.BitFlips += o.BitFlips
	s.StuckReads += o.StuckReads
}

// FaultyMedium wraps a perfect in-memory medium with a seeded fault
// injector. Equal seeds and equal operation sequences give equal fault
// sequences, so campaign runs are reproducible.
type FaultyMedium struct {
	inner   *MemMedium
	rng     *rand.Rand
	profile FaultProfile
	torn    bool // device down for the remainder of the frame
	stats   MediumStats
	// scratch holds the damaged copy of a stuck read or a bit-rotted
	// record: faults corrupt a copy, never a view of the stored bytes.
	scratch []byte
}

// NewFaultyMedium returns a faulty medium over fresh in-memory storage.
func NewFaultyMedium(seed int64, profile FaultProfile) *FaultyMedium {
	return &FaultyMedium{
		inner:   NewMemMedium(),
		rng:     rand.New(rand.NewSource(seed)),
		profile: profile,
	}
}

// Stats returns the injected-fault counts so far.
func (f *FaultyMedium) Stats() MediumStats { return f.stats }

// Read implements Medium. With probability StuckReadRate the read returns
// a copy with a bit forced, leaving the stored record undamaged; otherwise
// it returns the stored bytes as they lie.
func (f *FaultyMedium) Read(key string) ([]byte, bool) {
	raw, ok := f.inner.Read(key)
	if !ok {
		return nil, false
	}
	if f.profile.StuckReadRate > 0 && f.rng.Float64() < f.profile.StuckReadRate {
		f.stats.StuckReads++
		f.scratch = append(f.scratch[:0], raw...)
		raw = f.scratch
		raw[f.rng.Intn(len(raw))] ^= 1 << uint(f.rng.Intn(8))
	}
	return raw, true
}

// Write implements Medium. A torn medium stays down until EndFrame.
func (f *FaultyMedium) Write(key string, raw []byte) error {
	if f.torn {
		f.stats.TornWrites++
		return errTornWrite
	}
	if f.profile.TornWriteRate > 0 && f.rng.Float64() < f.profile.TornWriteRate {
		f.torn = true
		f.stats.TornWrites++
		return errTornWrite
	}
	return f.inner.Write(key, raw)
}

// Delete implements Medium.
func (f *FaultyMedium) Delete(key string) { f.inner.Delete(key) }

// Keys implements Medium.
func (f *FaultyMedium) Keys() []string { return f.inner.Keys() }

// EndFrame implements Medium: the torn outage (if any) ends, and bit rot for
// the next frame is applied to one randomly chosen stored record.
func (f *FaultyMedium) EndFrame() {
	f.torn = false
	if f.profile.BitRotRate <= 0 || f.rng.Float64() >= f.profile.BitRotRate {
		return
	}
	keys := f.inner.Keys()
	if len(keys) == 0 {
		return
	}
	key := keys[f.rng.Intn(len(keys))]
	raw, ok := f.inner.Read(key)
	if !ok || len(raw) == 0 {
		return
	}
	f.scratch = append(f.scratch[:0], raw...)
	f.scratch[f.rng.Intn(len(raw))] ^= 1 << uint(f.rng.Intn(8))
	f.stats.BitFlips++
	// Write through the perfect inner medium: rot damages storage even
	// while the device rejects commit writes.
	//lint:allow stableerr fault injection damages the medium on purpose; MemMedium.Write cannot fail
	_ = f.inner.Write(key, f.scratch)
}

// MediaProfile describes how to build a hardened store: the replica count
// and the fault model of each backing medium. The zero FaultProfile yields
// replicated, checksummed storage over perfect media.
type MediaProfile struct {
	// Replicas is the number of backing media; 0 defaults to 3.
	Replicas int `json:"replicas"`
	// Seed drives each medium's fault injector; the per-medium seed is
	// derived from Seed, the salt, and the replica index.
	Seed int64 `json:"seed"`
	// Faults is the per-medium fault model.
	Faults FaultProfile `json:"faults"`
	// Oracle enables silent-wrong-data accounting: the store mirrors every
	// commit into a perfect shadow map and compares each read against it.
	Oracle bool `json:"oracle"`
}

// mediumSeed derives a deterministic per-medium seed.
func mediumSeed(base int64, salt string, idx int) int64 {
	h := fnv.New64a()
	h.Write([]byte(salt))
	return base + int64(h.Sum64()&0x7FFFFFFF) + int64(idx)*1_000_003
}

// NewHardenedStore builds a Store over a fresh ReplicatedStore configured by
// the profile. The salt (typically the owning processor's identifier) keeps
// different processors' fault sequences independent under one campaign seed.
func NewHardenedStore(profile MediaProfile, salt string) *Store {
	n := profile.Replicas
	if n <= 0 {
		n = 3
	}
	media := make([]Medium, n)
	for i := range media {
		media[i] = NewFaultyMedium(mediumSeed(profile.Seed, salt, i), profile.Faults)
	}
	rep := NewReplicatedStore(media...)
	if profile.Oracle {
		rep.EnableOracle()
	}
	return NewHardened(rep)
}
