package stable

import (
	"bytes"
	"math"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

func TestReadCommitted(t *testing.T) {
	s := NewStore()
	s.Put("k", []byte("v1"))
	if _, ok := s.Get("k"); ok {
		t.Fatal("staged write visible before commit")
	}
	s.Commit()
	v, ok := s.Get("k")
	if !ok || string(v) != "v1" {
		t.Fatalf("Get after commit = %q, %v; want v1, true", v, ok)
	}
	s.Put("k", []byte("v2"))
	v, _ = s.Get("k")
	if string(v) != "v1" {
		t.Fatalf("staged overwrite visible before commit: got %q", v)
	}
	s.Commit()
	v, _ = s.Get("k")
	if string(v) != "v2" {
		t.Fatalf("Get after second commit = %q, want v2", v)
	}
}

func TestDeleteStaged(t *testing.T) {
	s := NewStore()
	s.Put("k", []byte("v"))
	s.Commit()
	s.Delete("k")
	if _, ok := s.Get("k"); !ok {
		t.Fatal("delete visible before commit")
	}
	s.Commit()
	if _, ok := s.Get("k"); ok {
		t.Fatal("key present after committed delete")
	}
}

func TestDiscardDropsStagedOnly(t *testing.T) {
	s := NewStore()
	s.Put("a", []byte("committed"))
	s.Commit()
	s.Put("a", []byte("lost"))
	s.Put("b", []byte("lost-too"))
	s.Discard()
	if n := s.PendingWrites(); n != 0 {
		t.Fatalf("PendingWrites after discard = %d, want 0", n)
	}
	s.Commit()
	if v, _ := s.Get("a"); string(v) != "committed" {
		t.Fatalf("a = %q after discard+commit, want committed", v)
	}
	if _, ok := s.Get("b"); ok {
		t.Fatal("discarded write to b survived")
	}
}

func TestVersionAdvancesEveryCommit(t *testing.T) {
	s := NewStore()
	if s.Version() != 0 {
		t.Fatalf("fresh store version = %d, want 0", s.Version())
	}
	for i := uint64(1); i <= 5; i++ {
		if got := s.Commit(); got != i {
			t.Fatalf("commit %d returned version %d", i, got)
		}
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewStore()
	orig := []byte("hello")
	s.Put("k", orig)
	orig[0] = 'X' // caller mutates after Put; store must be unaffected
	s.Commit()
	v, _ := s.Get("k")
	if string(v) != "hello" {
		t.Fatalf("Put did not copy input: got %q", v)
	}
	v[0] = 'Y' // mutate returned slice; store must be unaffected
	v2, _ := s.Get("k")
	if string(v2) != "hello" {
		t.Fatalf("Get did not copy output: got %q", v2)
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	s := NewStore()
	s.Put("k", []byte("v"))
	s.Commit()
	snap := s.Snapshot()
	snap["k"][0] = 'X'
	v, _ := s.Get("k")
	if string(v) != "v" {
		t.Fatalf("snapshot aliased committed state: got %q", v)
	}
}

func TestSnapshotExcludesStaged(t *testing.T) {
	s := NewStore()
	s.Put("committed", []byte("1"))
	s.Commit()
	s.Put("staged", []byte("2"))
	snap := s.Snapshot()
	if _, ok := snap["staged"]; ok {
		t.Fatal("snapshot includes staged write")
	}
	if _, ok := snap["committed"]; !ok {
		t.Fatal("snapshot missing committed write")
	}
}

func TestRestoreRequiresCommit(t *testing.T) {
	src := NewStore()
	src.Put("a", []byte("1"))
	src.Put("b", []byte("2"))
	src.Commit()

	dst := NewStore()
	dst.Restore(src.Snapshot())
	if _, ok := dst.Get("a"); ok {
		t.Fatal("restore visible before commit")
	}
	dst.Commit()
	for _, k := range []string{"a", "b"} {
		if _, ok := dst.Get(k); !ok {
			t.Fatalf("restored key %q missing after commit", k)
		}
	}
}

func TestKeysPrefixSorted(t *testing.T) {
	s := NewStore()
	for _, k := range []string{"app/b", "app/a", "sys/x"} {
		s.Put(k, []byte("v"))
	}
	s.Commit()
	got := s.Keys("app/")
	want := []string{"app/a", "app/b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys(app/) = %v, want %v", got, want)
	}
}

func TestTypedHelpers(t *testing.T) {
	s := NewStore()
	s.PutString("s", "hello")
	s.PutInt64("n", -42)
	type payload struct {
		A int    `json:"a"`
		B string `json:"b"`
	}
	if err := s.PutJSON("j", payload{A: 7, B: "x"}); err != nil {
		t.Fatalf("PutJSON: %v", err)
	}
	s.Commit()

	if v, ok := s.GetString("s"); !ok || v != "hello" {
		t.Errorf("GetString = %q, %v", v, ok)
	}
	if n, err := s.GetInt64("n"); err != nil || n != -42 {
		t.Errorf("GetInt64 = %d, %v", n, err)
	}
	var p payload
	if ok, err := s.GetJSON("j", &p); err != nil || !ok || p.A != 7 || p.B != "x" {
		t.Errorf("GetJSON = %+v, %v, %v", p, ok, err)
	}

	if _, err := s.GetInt64("missing"); err == nil {
		t.Error("GetInt64(missing) did not error")
	}
	s.PutString("bad", "not-a-number")
	s.Commit()
	if _, err := s.GetInt64("bad"); err == nil {
		t.Error("GetInt64(bad) did not error")
	}
	if ok, err := s.GetJSON("absent", &p); ok || err != nil {
		t.Errorf("GetJSON(absent) = %v, %v; want false, nil", ok, err)
	}
	s.PutString("badjson", "{")
	s.Commit()
	if _, err := s.GetJSON("badjson", &p); err == nil {
		t.Error("GetJSON(badjson) did not error")
	}
	if err := s.PutJSON("ch", make(chan int)); err == nil {
		t.Error("PutJSON(chan) did not error")
	}
}

// TestGetInt64MatchesParseInt holds GetInt64 on both backends to
// strconv.ParseInt(s, 10, 64): the same value for every input it accepts,
// an error for every input it rejects (where ParseInt also returns a
// clamped value) — the int64 bounds, overflow that
// wraps a 64-bit accumulator, a lone sign and empty input included — and
// PutInt64 round-trips both bounds.
func TestGetInt64MatchesParseInt(t *testing.T) {
	inputs := []string{
		"0", "-0", "+0", "7", "+7", "-42", "007",
		"9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "-9223372036854775809",
		"25000000000000000000", "18446744073709551616", "-18446744073709551617",
		"", "-", "+", "--1", "+-1", "12a", " 1", "1 ", "1_000", "0x10",
	}
	backends := map[string]func() *Store{
		"plain":    NewStore,
		"hardened": func() *Store { return NewHardened(MountReplicatedStore(NewMemMedium(), NewMemMedium())) },
	}
	for name, mk := range backends {
		s := mk()
		for i, in := range inputs {
			s.Put(strconv.Itoa(i), []byte(in))
		}
		s.PutInt64("max", math.MaxInt64)
		s.PutInt64("min", math.MinInt64)
		s.Commit()
		for i, in := range inputs {
			want, wantErr := strconv.ParseInt(in, 10, 64)
			got, err := s.GetInt64(strconv.Itoa(i))
			if (err != nil) != (wantErr != nil) || (err == nil && got != want) {
				t.Errorf("%s: GetInt64(%q) = %d, %v; strconv.ParseInt gives %d, %v", name, in, got, err, want, wantErr)
			}
		}
		for key, want := range map[string]int64{"max": math.MaxInt64, "min": math.MinInt64} {
			if got, err := s.GetInt64(key); err != nil || got != want {
				t.Errorf("%s: PutInt64(%d) reads back %d, %v", name, want, got, err)
			}
		}
	}
}

func TestRegionIsolation(t *testing.T) {
	s := NewStore()
	r1 := s.Region("app1")
	r2 := s.Region("app2")
	r1.PutString("k", "one")
	r2.PutString("k", "two")
	s.Commit()

	if v, _ := r1.GetString("k"); v != "one" {
		t.Errorf("r1 k = %q, want one", v)
	}
	if v, _ := r2.GetString("k"); v != "two" {
		t.Errorf("r2 k = %q, want two", v)
	}
	if keys := r1.Keys(); len(keys) != 1 || keys[0] != "k" {
		t.Errorf("r1 keys = %v, want [k]", keys)
	}
}

func TestRegionSnapshotRestore(t *testing.T) {
	s := NewStore()
	r := s.Region("ap")
	r.PutString("alt", "1000")
	r.PutInt64("count", 3)
	type gains struct{ P, I float64 }
	if err := r.PutJSON("gains", gains{P: 0.5, I: 0.1}); err != nil {
		t.Fatal(err)
	}
	s.Commit()

	// Migrate the region to another processor's store.
	dst := NewStore()
	dstRegion := dst.Region("ap")
	dstRegion.Restore(r.Snapshot())
	dst.Commit()

	if v, _ := dstRegion.GetString("alt"); v != "1000" {
		t.Errorf("migrated alt = %q", v)
	}
	if n, err := dstRegion.GetInt64("count"); err != nil || n != 3 {
		t.Errorf("migrated count = %d, %v", n, err)
	}
	var g gains
	if ok, err := dstRegion.GetJSON("gains", &g); !ok || err != nil || g.P != 0.5 {
		t.Errorf("migrated gains = %+v, %v, %v", g, ok, err)
	}
	r.Delete("alt")
	s.Commit()
	if _, ok := r.GetString("alt"); ok {
		t.Error("region delete did not take effect")
	}
}

// TestCrashAtomicityProperty checks the core fail-stop invariant with
// randomized inputs: after staging arbitrary writes and then "crashing"
// (Discard), the committed state is byte-for-byte what the last Commit
// established.
func TestCrashAtomicityProperty(t *testing.T) {
	prop := func(committedVals, stagedVals map[string][]byte) bool {
		s := NewStore()
		for k, v := range committedVals {
			s.Put(k, v)
		}
		s.Commit()
		before := s.Snapshot()
		for k, v := range stagedVals {
			s.Put(k, v)
		}
		// Crash: volatile (staged) contents are lost.
		s.Discard()
		after := s.Snapshot()
		if len(before) != len(after) {
			return false
		}
		for k, v := range before {
			if !bytes.Equal(after[k], v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCommitAppliesAllProperty checks that a commit applies exactly the
// staged writes: every staged key has its staged value afterwards and no
// other key changes.
func TestCommitAppliesAllProperty(t *testing.T) {
	prop := func(initial, update map[string][]byte) bool {
		s := NewStore()
		for k, v := range initial {
			s.Put(k, v)
		}
		s.Commit()
		for k, v := range update {
			s.Put(k, v)
		}
		s.Commit()
		snap := s.Snapshot()
		for k, v := range update {
			if !bytes.Equal(snap[k], v) {
				return false
			}
		}
		for k, v := range initial {
			if _, overwritten := update[k]; overwritten {
				continue
			}
			if !bytes.Equal(snap[k], v) {
				return false
			}
		}
		return len(snap) <= len(initial)+len(update)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStagedLenAndDirty(t *testing.T) {
	s := NewStore()
	if s.StagedLen() != 0 {
		t.Fatalf("fresh store StagedLen = %d", s.StagedLen())
	}
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	s.Delete("c")
	if got := s.StagedLen(); got != 3 {
		t.Errorf("StagedLen = %d, want 3", got)
	}
	if staged, deleted := s.Dirty("a"); !staged || deleted {
		t.Errorf("Dirty(a) = %v, %v; want staged put", staged, deleted)
	}
	if staged, deleted := s.Dirty("c"); !staged || !deleted {
		t.Errorf("Dirty(c) = %v, %v; want staged delete", staged, deleted)
	}
	if staged, _ := s.Dirty("nope"); staged {
		t.Error("Dirty reports untouched key as staged")
	}
	s.Commit()
	if s.StagedLen() != 0 {
		t.Errorf("StagedLen after commit = %d", s.StagedLen())
	}
	if staged, _ := s.Dirty("a"); staged {
		t.Error("Dirty(a) still staged after commit")
	}
}
