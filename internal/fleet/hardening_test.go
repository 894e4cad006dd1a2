package fleet

// Control-plane hardening tests: the applied_frame ack barrier (the ack-race
// regression), the quarantine-snapshot LRU, bounded tenant state under
// retention, and the HTTP plane's admission/drain gates.

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// manualHost builds a host with no scheduler loop: frames advance only when
// the test calls stepBatch, which makes barrier timing deterministic. The
// returned cleanup closes tenant systems (Close would block with no loop).
func manualHost(t *testing.T, cfg Config) *Host {
	t.Helper()
	h := newHostNoLoop(cfg)
	t.Cleanup(func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		for _, ten := range h.tenants {
			ten.mu.Lock()
			if !ten.closed {
				ten.closed = true
				ten.sys.Close()
			}
			ten.mu.Unlock()
		}
	})
	return h
}

// TestInjectAcksOnlyCommittedFrames is the ack-race regression test: the
// applied_frame ack must not be issued until the injected frame's commit
// barrier. Before the fix, Inject returned as soon as the injection was
// staged — a crash between the ack and the frame's execution produced an
// acked injection the recovered fleet had never run, breaking replay.
func TestInjectAcksOnlyCommittedFrames(t *testing.T) {
	h := manualHost(t, Config{})
	ten, err := h.Spawn(SpawnSpec{ID: "b", Preset: "threeconfig", Seed: 17})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}

	type ack struct {
		applied int64
		err     error
	}
	acked := make(chan ack, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		applied, err := h.Inject("b", Injection{Kind: "env", Factor: "alt1", Value: "failed"})
		acked <- ack{applied, err}
	}()

	// No frames are advancing, so the ack must not arrive.
	select {
	case a := <-acked:
		t.Fatalf("ack (%d, %v) issued before the injected frame committed", a.applied, a.err)
	case <-time.After(50 * time.Millisecond):
	}

	// Advance past the injected frame: the barrier releases the ack, and
	// the acked frame is now strictly behind the committed frontier.
	ten.stepBatch(4)
	wg.Wait()
	a := <-acked
	if a.err != nil {
		t.Fatalf("inject: %v", a.err)
	}
	if frame := ten.Status().Frame; frame <= a.applied {
		t.Fatalf("acked frame %d but tenant is only at %d: ack outran the commit barrier", a.applied, frame)
	}
}

// TestInjectBarrierFailsOnQuarantine: an injection whose frame dies with a
// quarantine must error, never ack — an acked-but-unexecuted frame is a
// corrupt replay recipe.
func TestInjectBarrierFailsOnQuarantine(t *testing.T) {
	h := manualHost(t, Config{})
	ten, err := h.Spawn(SpawnSpec{ID: "q", Preset: "threeconfig", Seed: 18})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	ten.stepBatch(3)
	next := ten.Status().Frame

	// Arm a panic at the next frame, then inject env at the same frame: the
	// frame can never commit, so the env ack must fail.
	if _, err := ten.Inject(Injection{Kind: "panic", Frame: next}); err != nil {
		t.Fatalf("arm panic: %v", err)
	}
	acked := make(chan error, 1)
	go func() {
		_, err := h.Inject("q", Injection{Kind: "env", Factor: "alt1", Value: "failed"})
		acked <- err
	}()
	select {
	case err := <-acked:
		t.Fatalf("premature ack outcome before stepping: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	ten.stepBatch(2) // fires the panic at frame `next`
	if err := <-acked; err == nil {
		t.Fatal("env injection acked although its frame died with the quarantine")
	}
	if st := ten.Status(); st.State != StateQuarantined {
		t.Fatalf("tenant = %+v, want quarantined", st)
	}
}

// TestQuarantineSnapshotLRU: the host caps cached post-mortem snapshots;
// evicted tenants re-recover theirs from committed stable storage on demand
// and re-enter the cache, evicting the now-least-recent victim.
func TestQuarantineSnapshotLRU(t *testing.T) {
	h := manualHost(t, Config{})
	// One tenant more than the cache holds.
	tens := make([]*Tenant, quarantineCache+1)
	for i := range tens {
		id := fmt.Sprintf("l-%d", i)
		ten, err := h.Spawn(SpawnSpec{ID: id, Preset: "threeconfig", Seed: int64(40 + i)})
		if err != nil {
			t.Fatalf("spawn %s: %v", id, err)
		}
		tens[i] = ten
		ten.stepBatch(8) // real work first, so the black box is non-trivial
		if _, err := ten.Inject(Injection{Kind: "panic"}); err != nil {
			t.Fatalf("arm %s: %v", id, err)
		}
		ten.stepBatch(2) // fire: quarantines in deterministic order 0,1,2,...
	}

	cached := func(ten *Tenant) bool {
		ten.mu.Lock()
		defer ten.mu.Unlock()
		return ten.final != nil
	}
	if cached(tens[0]) {
		t.Fatal("l-0 still cached: LRU did not evict past the cap")
	}
	for _, ten := range tens[1:] {
		if !cached(ten) {
			t.Fatalf("%s evicted within the cap", ten.ID())
		}
	}
	if n := h.quarantineCached(); n != quarantineCache {
		t.Fatalf("cache occupancy %d, want %d", n, quarantineCache)
	}

	// Serving the evicted tenant re-recovers its post-mortem from stable
	// storage and re-caches it, evicting the least recently served.
	snap, ok := tens[0].TelemetrySnapshot()
	if !ok || len(snap.Events) == 0 {
		t.Fatalf("evicted tenant re-recovery failed (ok=%v, %d events)", ok, len(snap.Events))
	}
	if !cached(tens[0]) {
		t.Fatal("re-recovered snapshot not re-cached")
	}
	if cached(tens[1]) {
		t.Fatal("LRU did not evict the least recently served tenant")
	}
}

// TestRetentionBoundsTenantFootprint: with RetainFrames set, a tenant's
// trace — the one per-frame grower — stays within twice the window over a
// 10k-frame run, while the unbounded spec grows linearly. The journal ring
// trims behind the same horizon.
func TestRetentionBoundsTenantFootprint(t *testing.T) {
	run := func(retain int64) *core.System {
		t.Helper()
		opts, err := SpawnOptions(SpawnSpec{Preset: "threeconfig", Seed: 77, RetainFrames: retain})
		if err != nil {
			t.Fatalf("SpawnOptions: %v", err)
		}
		sys, err := core.NewSystem(opts)
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		t.Cleanup(sys.Close)
		if err := sys.StepTo(10_000); err != nil {
			t.Fatalf("run: %v", err)
		}
		return sys
	}

	bounded := run(64)
	if n := bounded.Trace().Len(); n > 128 {
		t.Fatalf("retained trace holds %d states, want <= 2*64: footprint is not flat", n)
	}
	if end := bounded.Trace().End(); end != 10_000 {
		t.Fatalf("trace end %d, want 10000 (absolute cycles must survive trimming)", end)
	}
	_, rec := bounded.Telemetry()
	if rec.Trimmed() == 0 {
		t.Fatal("journal ring never trimmed behind the retention horizon")
	}

	unbounded := run(-1)
	if n := unbounded.Trace().Len(); n != 10_000 {
		t.Fatalf("unbounded trace holds %d states, want 10000", n)
	}
}

// TestAdmissionControlShedsLoad: past the admission limit the control plane
// answers 429 with Retry-After instead of queueing, and a draining host
// refuses mutations with 503 while reads still serve.
func TestAdmissionControlShedsLoad(t *testing.T) {
	h := NewHost(Config{Shards: 1, Batch: 1})
	defer h.Close()
	api := NewAPILimited(h, 1)
	handler := api.Handler()

	// Occupy the single admission slot, then hit the plane again.
	api.sem <- struct{}{}
	rr := httptest.NewRecorder()
	handler.ServeHTTP(rr, httptest.NewRequest("DELETE", "/systems/none", nil))
	if rr.Code != 429 {
		t.Fatalf("status %d at admission limit, want 429", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	<-api.sem
	rr = httptest.NewRecorder()
	handler.ServeHTTP(rr, httptest.NewRequest("DELETE", "/systems/none", nil))
	if rr.Code != 404 {
		t.Fatalf("status %d with a free slot, want 404 (semaphore not released)", rr.Code)
	}

	h.Drain()
	rr = httptest.NewRecorder()
	handler.ServeHTTP(rr, httptest.NewRequest("DELETE", "/systems/none", nil))
	if rr.Code != 503 {
		t.Fatalf("status %d while draining, want 503", rr.Code)
	}
	rr = httptest.NewRecorder()
	handler.ServeHTTP(rr, httptest.NewRequest("GET", "/systems", nil))
	if rr.Code != 200 {
		t.Fatalf("read path status %d while draining, want 200", rr.Code)
	}
}
