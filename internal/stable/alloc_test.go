package stable

import (
	"bytes"
	"fmt"
	"testing"
)

// TestHardenedCleanPathAllocs is the allocation gate of the hardened read
// and scrub path. On a fault-free 3-replica store every record is verified
// where it lies: a scrub pass allocates nothing, Get allocates exactly the
// copy it returns, and GetInto into a buffer of sufficient capacity
// allocates nothing. The values handed out are copies: mutating them leaves
// the store unchanged.
func TestHardenedCleanPathAllocs(t *testing.T) {
	st := NewHardenedStore(MediaProfile{Replicas: 3, Oracle: true}, "alloc")
	var faults int
	st.SetFaultSink(func(error) { faults++ })
	const keys = 32
	for i := 0; i < keys; i++ {
		st.Put(fmt.Sprintf("app/k%02d", i), []byte(fmt.Sprintf("value-%02d", i)))
	}
	st.Commit()
	// Reach steady state: the union-key cache is built by the first pass.
	if _, err := st.Scrub(); err != nil {
		t.Fatalf("scrub: %v", err)
	}

	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := st.Scrub(); err != nil {
			t.Fatalf("scrub: %v", err)
		}
	}); allocs != 0 {
		t.Errorf("clean Scrub allocated %.1f times per pass, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, ok := st.Get("app/k07"); !ok {
			t.Fatal("Get missed a committed key")
		}
	}); allocs != 1 {
		t.Errorf("Get allocated %.1f times per call, want 1 (the returned copy)", allocs)
	}
	buf := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(20, func() {
		var ok bool
		if buf, ok = st.GetInto(buf, "app/k07"); !ok {
			t.Fatal("GetInto missed a committed key")
		}
	}); allocs != 0 {
		t.Errorf("GetInto allocated %.1f times per call, want 0", allocs)
	}

	// The returned values are the caller's: scribbling over them must not
	// reach the replicas.
	v, _ := st.Get("app/k07")
	for i := range v {
		v[i] = 'X'
	}
	buf, _ = st.GetInto(buf, "app/k07")
	for i := range buf {
		buf[i] = 'Y'
	}
	if got, ok := st.Get("app/k07"); !ok || string(got) != "value-07" {
		t.Fatalf("mutating returned slices changed the store: Get = %q, %v", got, ok)
	}
	snap := st.Snapshot()
	for k, v := range snap {
		if !bytes.HasPrefix(v, []byte("value-")) {
			t.Fatalf("snapshot %s = %q", k, v)
		}
	}
	rep := st.Hardened()
	if s := rep.Stats(); s.CorruptionsDetected != 0 || s.ReadRepairs != 0 || s.ScrubRepairs != 0 || s.SilentWrongData != 0 || faults != 0 {
		t.Fatalf("clean store reported fault handling: %+v, %d faults", s, faults)
	}
}
