package stable

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

func TestRecordCodecRoundTrip(t *testing.T) {
	for _, rec := range []record{
		{version: 1, payload: []byte("hello")},
		{version: 1 << 40, payload: nil},
		{version: 7, tombstone: true},
	} {
		got, err := decodeRecord(appendRecord(nil, rec))
		if err != nil {
			t.Fatalf("decode(%+v): %v", rec, err)
		}
		if got.version != rec.version || got.tombstone != rec.tombstone || !bytes.Equal(got.payload, rec.payload) {
			t.Errorf("round trip %+v -> %+v", rec, got)
		}
	}
}

func TestRecordCodecDetectsCorruption(t *testing.T) {
	raw := appendRecord(nil, record{version: 3, payload: []byte("payload")})
	for i := range raw {
		bad := make([]byte, len(raw))
		copy(bad, raw)
		bad[i] ^= 0x40
		if _, err := decodeRecord(bad); err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
	if _, err := decodeRecord(raw[:recordHeaderLen-1]); err == nil {
		t.Error("truncated record went undetected")
	}
}

func TestCommitRecordRoundTrip(t *testing.T) {
	v, err := decodeCommitRecord(appendCommitRecord(nil, 42))
	if err != nil || v != 42 {
		t.Fatalf("commit record round trip = %d, %v", v, err)
	}
	raw := appendCommitRecord(nil, 42)
	raw[recordHeaderLen] ^= 1
	if _, err := decodeCommitRecord(raw); err == nil {
		t.Error("corrupt commit record went undetected")
	}
}

// TestHardenedMatchesPlain runs the same operation sequence against a plain
// store and a hardened store over perfect media; the committed views must
// agree at every step.
func TestHardenedMatchesPlain(t *testing.T) {
	plain := NewStore()
	hard := NewHardened(NewReplicatedStore(NewMemMedium(), NewMemMedium(), NewMemMedium()))
	step := func(op func(s *Store)) {
		op(plain)
		op(hard)
	}
	check := func() {
		t.Helper()
		ps, hs := plain.Snapshot(), hard.Snapshot()
		if len(ps) != len(hs) {
			t.Fatalf("snapshots differ: plain %v, hardened %v", ps, hs)
		}
		for k, v := range ps {
			if hv, ok := hs[k]; !ok || !bytes.Equal(v, hv) {
				t.Fatalf("key %q: plain %q, hardened %q (ok=%v)", k, v, hv, ok)
			}
		}
		pk, hk := plain.Keys("a/"), hard.Keys("a/")
		if len(pk) != len(hk) {
			t.Fatalf("keys differ: %v vs %v", pk, hk)
		}
	}

	step(func(s *Store) { s.Put("a/x", []byte("1")); s.Put("a/y", []byte("2")) })
	step(func(s *Store) { s.Commit() })
	check()
	step(func(s *Store) { s.Put("a/x", []byte("3")); s.Put("b/z", []byte("4")); s.Delete("a/y") })
	step(func(s *Store) { s.Commit() })
	check()
	step(func(s *Store) { s.Put("ghost", []byte("5")) })
	step(func(s *Store) { s.Discard() })
	step(func(s *Store) { s.Commit() })
	check()
	if v, ok := hard.Get("a/x"); !ok || string(v) != "3" {
		t.Fatalf("hardened Get(a/x) = %q, %v", v, ok)
	}
	if _, ok := hard.Get("a/y"); ok {
		t.Fatal("deleted key still readable on hardened store")
	}
}

// corruptOn flips a bit in key's record on medium m. Read returns a
// read-only view, so the damage is done to a copy and written back.
func corruptOn(t *testing.T, m Medium, key string) {
	t.Helper()
	view, ok := m.Read(key)
	if !ok {
		t.Fatalf("key %q absent on medium", key)
	}
	raw := bytes.Clone(view)
	raw[len(raw)-1] ^= 1
	if err := m.Write(key, raw); err != nil {
		t.Fatalf("corrupting write: %v", err)
	}
}

func TestReadRepairFixesSingleReplica(t *testing.T) {
	media := []Medium{NewMemMedium(), NewMemMedium(), NewMemMedium()}
	rep := NewReplicatedStore(media...)
	st := NewHardened(rep)
	st.Put("k", []byte("value"))
	st.Commit()

	corruptOn(t, media[1], "k")
	v, ok := st.Get("k")
	if !ok || string(v) != "value" {
		t.Fatalf("Get after single-replica corruption = %q, %v", v, ok)
	}
	stats := rep.Stats()
	if stats.CorruptionsDetected == 0 || stats.ReadRepairs == 0 {
		t.Fatalf("no detection/repair recorded: %+v", stats)
	}
	// The replica must actually hold the repaired record now.
	raw, _ := media[1].Read("k")
	if rec, err := decodeRecord(raw); err != nil || string(rec.payload) != "value" {
		t.Fatalf("replica 1 not repaired: %v", err)
	}
}

func TestAllReplicasCorruptHaltsViaSink(t *testing.T) {
	media := []Medium{NewMemMedium(), NewMemMedium()}
	rep := NewReplicatedStore(media...)
	st := NewHardened(rep)
	var sunk error
	st.SetFaultSink(func(err error) { sunk = err })
	st.Put("k", []byte("value"))
	st.Commit()

	corruptOn(t, media[0], "k")
	corruptOn(t, media[1], "k")
	if _, ok := st.Get("k"); ok {
		t.Fatal("corrupt-everywhere key still readable")
	}
	if !errors.Is(sunk, ErrUnrecoverable) {
		t.Fatalf("fault sink got %v, want ErrUnrecoverable", sunk)
	}
	if rep.Stats().Unrecoverable == 0 {
		t.Error("unrecoverable not counted")
	}
}

// TestStaleReplicaCannotMaskNewerData is the silent-wrong-data regression:
// a replica left behind by a torn write holds a valid-looking old record; if
// the up-to-date copies rot, the store must halt rather than serve the stale
// survivor.
func TestStaleReplicaCannotMaskNewerData(t *testing.T) {
	media := []Medium{NewMemMedium(), NewMemMedium(), NewMemMedium()}
	rep := NewReplicatedStore(media...)
	st := NewHardened(rep)
	st.Put("k", []byte("old"))
	st.Commit()

	// Snapshot replica 0 at the old version, then update the key. Read
	// views are valid only until the next call on the medium: copy them.
	oldRec, _ := media[0].Read("k")
	oldRec = bytes.Clone(oldRec)
	oldCommit, _ := media[0].Read(commitRecordKey)
	oldCommit = bytes.Clone(oldCommit)
	st.Put("k", []byte("new"))
	st.Commit()
	// Replica 0 "tears back" to its old state: valid record, stale commit.
	if err := media[0].Write("k", oldRec); err != nil {
		t.Fatal(err)
	}
	if err := media[0].Write(commitRecordKey, oldCommit); err != nil {
		t.Fatal(err)
	}
	// The caught-up copies rot.
	corruptOn(t, media[1], "k")
	corruptOn(t, media[2], "k")

	var sunk error
	st.SetFaultSink(func(err error) { sunk = err })
	if v, ok := st.Get("k"); ok {
		t.Fatalf("stale data served as current: %q", v)
	}
	if !errors.Is(sunk, ErrUnrecoverable) {
		t.Fatalf("fault sink got %v, want ErrUnrecoverable", sunk)
	}
}

// TestStaleReplicaServesOldKeysSafely: a key that predates every surviving
// replica's tear is still readable from a stale replica — falling back is
// safe exactly when no caught-up replica ever held the key.
func TestTombstoneStopsResurrection(t *testing.T) {
	media := []Medium{NewMemMedium(), NewMemMedium()}
	rep := NewReplicatedStore(media...)
	st := NewHardened(rep)
	st.Put("k", []byte("value"))
	st.Commit()
	st.Delete("k")
	st.Commit()

	if _, ok := st.Get("k"); ok {
		t.Fatal("deleted key readable")
	}
	// Both media still hold a record for k — the tombstone, not absence, so
	// a stale pre-delete replica can never resurrect the value.
	for i, m := range media {
		raw, ok := m.Read("k")
		if !ok {
			t.Fatalf("medium %d dropped the tombstone", i)
		}
		rec, err := decodeRecord(raw)
		if err != nil || !rec.tombstone {
			t.Fatalf("medium %d record = %+v, %v; want tombstone", i, rec, err)
		}
	}
	if keys := st.Keys(""); len(keys) != 0 {
		t.Fatalf("Keys = %v, want none", keys)
	}
	if snap := st.Snapshot(); len(snap) != 0 {
		t.Fatalf("Snapshot = %v, want empty", snap)
	}
}

func TestTornWriteLeavesReplicaBehindScrubRepairs(t *testing.T) {
	fm := NewFaultyMedium(1, FaultProfile{})
	good := NewMemMedium()
	rep := NewReplicatedStore(fm, good)
	st := NewHardened(rep)
	st.Put("k", []byte("v1"))
	st.Commit()

	// Tear the faulty medium for the rest of the frame, then commit.
	fm.torn = true
	st.Put("k", []byte("v2"))
	if st.Commit() != 2 {
		t.Fatal("commit lost despite one healthy replica")
	}
	if rep.Stats().TornReplicaCommits == 0 {
		t.Error("torn replica commit not counted")
	}
	if v, ok := st.Get("k"); !ok || string(v) != "v2" {
		t.Fatalf("Get = %q, %v; want v2 from healthy replica", v, ok)
	}

	// The first scrub ends the frame (clearing the torn state); the medium
	// is writable again on the next frame, whose scrub repairs it.
	if _, err := st.Scrub(); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if _, err := st.Scrub(); err != nil {
		t.Fatalf("second scrub: %v", err)
	}
	raw, _ := fm.inner.Read("k")
	rec, err := decodeRecord(raw)
	if err != nil || string(rec.payload) != "v2" {
		t.Fatalf("torn replica not scrub-repaired: %+v, %v", rec, err)
	}
	if rep.Stats().StaleCommitRecords == 0 {
		t.Error("stale commit record not refreshed")
	}
}

func TestCommitLostOnAllReplicasHalts(t *testing.T) {
	fms := []*FaultyMedium{NewFaultyMedium(1, FaultProfile{}), NewFaultyMedium(2, FaultProfile{})}
	rep := NewReplicatedStore(fms[0], fms[1])
	st := NewHardened(rep)
	var sunk error
	st.SetFaultSink(func(err error) { sunk = err })
	st.Put("k", []byte("v1"))
	st.Commit()

	fms[0].torn = true
	fms[1].torn = true
	st.Put("k", []byte("v2"))
	if got := st.Commit(); got != 1 {
		t.Fatalf("version advanced to %d past a wholly lost commit", got)
	}
	if !errors.Is(sunk, ErrUnrecoverable) {
		t.Fatalf("fault sink got %v, want ErrUnrecoverable", sunk)
	}
	// Committed state survives at the old version.
	if v, ok := st.Get("k"); !ok || string(v) != "v1" {
		t.Fatalf("Get after lost commit = %q, %v; want v1", v, ok)
	}
}

// TestCommitDoesNotStampStaleReplica: a replica that missed an earlier
// batch must not be stamped caught up by a later commit it fully absorbs —
// it may still hold stale records for keys outside that batch. If it were
// stamped, rot on the genuinely current copies would let the stale record
// read back as current (silent wrong data); instead the store must halt.
func TestCommitDoesNotStampStaleReplica(t *testing.T) {
	fm := NewFaultyMedium(1, FaultProfile{})
	good := NewMemMedium()
	rep := NewReplicatedStore(good, fm)
	st := NewHardened(rep)
	var sunk error
	st.SetFaultSink(func(err error) { sunk = err })

	st.Put("y", []byte("old"))
	st.Commit() // v1: both replicas hold y
	fm.torn = true
	st.Put("y", []byte("new"))
	st.Commit() // v2 tears on fm: it keeps y@1 and commit record @1
	fm.torn = false

	// v3's batch has no y; fm absorbs it fully yet must stay unstamped.
	st.Put("z", []byte("3"))
	st.Commit()
	raw, ok := fm.inner.Read(commitRecordKey)
	if !ok {
		t.Fatal("stale replica has no commit record")
	}
	if v, err := decodeCommitRecord(raw); err != nil || v != 1 {
		t.Fatalf("stale replica's commit record = %d, %v; want 1", v, err)
	}

	// The current copy of y rots: a read must halt, not serve fm's y@1.
	corruptOn(t, good, "y")
	if v, ok := st.Get("y"); ok {
		t.Fatalf("stale data served as current: %q", v)
	}
	if !errors.Is(sunk, ErrUnrecoverable) {
		t.Fatalf("fault sink got %v, want ErrUnrecoverable", sunk)
	}
}

// TestScrubDoesNotStampUnrepairedReplica: a scrub pass whose repair writes
// fault on a medium must leave that medium's commit record behind (and not
// count a refresh), or its unrepaired records would become authoritative.
func TestScrubDoesNotStampUnrepairedReplica(t *testing.T) {
	fm := NewFaultyMedium(1, FaultProfile{})
	good := NewMemMedium()
	rep := NewReplicatedStore(good, fm)
	st := NewHardened(rep)
	st.Put("k", []byte("v1"))
	st.Commit()
	fm.torn = true
	st.Put("k", []byte("v2"))
	st.Commit() // fm left behind at v1

	// The scrub runs while fm still rejects writes: the repair fails, so
	// the stale commit record must not be refreshed or counted.
	if _, err := st.Scrub(); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	raw, ok := fm.inner.Read(commitRecordKey)
	if !ok {
		t.Fatal("fm lost its commit record")
	}
	if v, err := decodeCommitRecord(raw); err != nil || v != 1 {
		t.Fatalf("unrepaired replica stamped: commit record = %d, %v", v, err)
	}
	if got := rep.Stats().StaleCommitRecords; got != 0 {
		t.Errorf("failed refresh counted as performed: %d", got)
	}

	// Next frame the device recovers: the scrub repairs, then stamps.
	if _, err := st.Scrub(); err != nil {
		t.Fatalf("second scrub: %v", err)
	}
	raw, _ = fm.inner.Read(commitRecordKey)
	if v, err := decodeCommitRecord(raw); err != nil || v != rep.Version() {
		t.Fatalf("recovered replica not stamped: commit record = %d, %v; want %d", v, err, rep.Version())
	}
	if got := rep.Stats().StaleCommitRecords; got != 1 {
		t.Errorf("StaleCommitRecords = %d, want 1", got)
	}
}

// TestScrubSkippedKeyBlocksStamp: a key exempted from scrub repair by a
// staged deletion still blocks the caught-up stamp of a stale medium whose
// copy of it diverges.
func TestScrubSkippedKeyBlocksStamp(t *testing.T) {
	fm := NewFaultyMedium(1, FaultProfile{})
	good := NewMemMedium()
	rep := NewReplicatedStore(good, fm)
	st := NewHardened(rep)
	st.Put("k", []byte("v1"))
	st.Commit()
	fm.torn = true
	st.Put("k", []byte("v2"))
	st.Commit() // fm stale, its copy of k divergent
	fm.torn = false

	st.Delete("k") // k is doomed: the scrub skips repairing it
	if _, err := st.Scrub(); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	raw, ok := fm.inner.Read(commitRecordKey)
	if !ok {
		t.Fatal("fm has no commit record")
	}
	if v, err := decodeCommitRecord(raw); err != nil || v != 1 {
		t.Fatalf("stale replica stamped past a divergent doomed key: commit record = %d, %v", v, err)
	}
}

// TestConcurrentCommitsSerialize drives Commit from several goroutines; the
// commit-serializing lock must hand each one a distinct version (run under
// -race to check the backend never sees duplicate version numbers).
func TestConcurrentCommitsSerialize(t *testing.T) {
	rep := NewReplicatedStore(NewMemMedium(), NewMemMedium())
	st := NewHardened(rep)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				st.Put("k", []byte{byte(g), byte(i)})
				st.Commit()
			}
		}(g)
	}
	wg.Wait()
	if v := st.Version(); v != 100 {
		t.Fatalf("store version = %d, want 100", v)
	}
	if v := rep.Version(); v != 100 {
		t.Fatalf("backend version = %d, want 100", v)
	}
}

// TestConcurrentHardenedReadsAndScrub drives Get, GetInto, Put and Delete
// from several goroutines while another commits and scrubs, over faulty
// media: the backend's reused read scratch and the scrub's reads of the
// staged deletions must stay consistent (run under -race), and every value
// read must be one some writer committed.
func TestConcurrentHardenedReadsAndScrub(t *testing.T) {
	st := NewHardenedStore(MediaProfile{Replicas: 3, Seed: 5, Faults: FaultProfile{StuckReadRate: 0.05, BitRotRate: 0.1}, Oracle: true}, "race")
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 200; i++ {
				k := []string{"a", "b", "c"}[i%3]
				if i%5 == 0 {
					st.Delete(k)
				} else {
					st.Put(k, []byte{'v', byte('0' + g)})
				}
				v, ok := st.Get(k)
				buf, _ = st.GetInto(buf, k)
				if ok && (len(v) != 2 || v[0] != 'v') {
					t.Errorf("Get(%s) = %q", k, v)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			st.Commit()
			st.Scrub()
		}
	}()
	wg.Wait()
	<-done
	if s := st.Hardened().Stats(); s.SilentWrongData != 0 || s.ScrubRuns != 100 {
		t.Fatalf("stats after concurrent use: %+v", s)
	}
}

func TestStuckReadDoesNotDamageStorage(t *testing.T) {
	fm := NewFaultyMedium(3, FaultProfile{StuckReadRate: 1})
	good := NewMemMedium()
	rep := NewReplicatedStore(fm, good)
	st := NewHardened(rep)
	st.Put("k", []byte("value"))
	st.Commit()

	for i := 0; i < 5; i++ {
		if v, ok := st.Get("k"); !ok || string(v) != "value" {
			t.Fatalf("Get %d = %q, %v", i, v, ok)
		}
	}
	if fm.Stats().StuckReads == 0 {
		t.Fatal("stuck reads never injected")
	}
	// The stored record itself is intact: stuck bits hit the read copy only.
	raw, _ := fm.inner.Read("k")
	if _, err := decodeRecord(raw); err != nil {
		t.Fatalf("stuck read damaged stored record: %v", err)
	}
}

func TestOracleCleanUnderSustainedFaults(t *testing.T) {
	prof := MediaProfile{
		Replicas: 3,
		Seed:     99,
		Faults:   FaultProfile{TornWriteRate: 0.05, BitRotRate: 0.2, StuckReadRate: 0.1},
		Oracle:   true,
	}
	st := NewHardenedStore(prof, "test")
	halted := false
	st.SetFaultSink(func(error) { halted = true })
	keys := []string{"a", "b", "c", "d"}
	for frame := 0; frame < 200 && !halted; frame++ {
		for i, k := range keys {
			if (frame+i)%3 == 0 {
				st.Put(k, []byte{byte(frame), byte(i)})
			}
			st.Get(k)
		}
		st.Commit()
		st.Scrub()
	}
	if got := st.Hardened().Stats().SilentWrongData; got != 0 {
		t.Fatalf("silent wrong data = %d, want 0", got)
	}
	if st.Hardened().InjectedStats() == (MediumStats{}) {
		t.Fatal("no faults injected; test is vacuous")
	}
}

func TestHardenedStoreDeterministicUnderSeed(t *testing.T) {
	run := func() (ReplStats, MediumStats) {
		st := NewHardenedStore(MediaProfile{
			Replicas: 3, Seed: 7,
			Faults: FaultProfile{TornWriteRate: 0.1, BitRotRate: 0.2, StuckReadRate: 0.1},
		}, "proc")
		for frame := 0; frame < 100; frame++ {
			st.Put("x", []byte{byte(frame)})
			st.Get("x")
			st.Commit()
			st.Scrub()
		}
		return st.Hardened().Stats(), st.Hardened().InjectedStats()
	}
	s1, i1 := run()
	s2, i2 := run()
	if s1 != s2 || i1 != i2 {
		t.Errorf("same seed diverged: %+v/%+v vs %+v/%+v", s1, i1, s2, i2)
	}
}

func TestSingleReplicaDetectsButCannotRepair(t *testing.T) {
	m := NewMemMedium()
	rep := NewReplicatedStore(m)
	st := NewHardened(rep)
	var sunk error
	st.SetFaultSink(func(err error) { sunk = err })
	st.Put("k", []byte("value"))
	st.Commit()
	corruptOn(t, m, "k")
	if _, ok := st.Get("k"); ok {
		t.Fatal("corrupt single-replica key readable")
	}
	if !errors.Is(sunk, ErrUnrecoverable) {
		t.Fatalf("fault sink got %v, want ErrUnrecoverable", sunk)
	}
}
