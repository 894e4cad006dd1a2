package main

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stable"
)

// tracer records the traced run's benchmark-side spans: wall time around
// the calls the benchmark makes into a layer. Spans inside the program are
// not recorded. While off, the wrappers add one atomic load per call, so a
// traced run can interleave on and off slices and report its own overhead.
type tracer struct {
	on     atomic.Bool
	mu     sync.Mutex
	routes map[string]durations
}

func newTracer() *tracer { return &tracer{routes: make(map[string]durations)} }

// wrap times every control-plane request server-side, by route.
func (tr *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		route := routeOf(r.Method, r.URL.Path)
		tr.mu.Lock()
		tr.routes[route] = append(tr.routes[route], d)
		tr.mu.Unlock()
	})
}

// routeOf names the fleet API route a request addresses.
func routeOf(method, path string) string {
	seg := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(seg) == 1 && seg[0] == "stats":
		return "stats"
	case len(seg) == 1 && seg[0] == "systems" && method == http.MethodPost:
		return "spawn"
	case len(seg) == 1 && seg[0] == "systems":
		return "list"
	case len(seg) == 2 && seg[0] == "systems" && method == http.MethodDelete:
		return "kill"
	case len(seg) == 2 && seg[0] == "systems":
		return "status"
	case len(seg) >= 3 && seg[0] == "systems":
		return seg[2] // inject, metrics, journal, traces, trace
	}
	return "other"
}

// mediumCounts aggregates the calls every countingMedium of one manifest
// makes into its replica.
type mediumCounts struct {
	writes, reads, keys, deletes, bytes atomic.Int64
	// busy is the wall time spent inside medium calls while the tracer
	// was on.
	busy   atomic.Int64
	mu     sync.Mutex
	writeT durations
}

type mediumSnapshot struct {
	writes, reads, keys, deletes, bytes int64
	busy                                time.Duration
}

func (c *mediumCounts) snapshot() mediumSnapshot {
	return mediumSnapshot{
		writes: c.writes.Load(), reads: c.reads.Load(), keys: c.keys.Load(),
		deletes: c.deletes.Load(), bytes: c.bytes.Load(), busy: time.Duration(c.busy.Load()),
	}
}

func (a mediumSnapshot) minus(b mediumSnapshot) mediumSnapshot {
	return mediumSnapshot{
		writes: a.writes - b.writes, reads: a.reads - b.reads, keys: a.keys - b.keys,
		deletes: a.deletes - b.deletes, bytes: a.bytes - b.bytes, busy: a.busy - b.busy,
	}
}

// countingMedium is a stable.Medium decorator that counts and, while the
// tracer is on, times every call into one manifest replica.
type countingMedium struct {
	inner stable.Medium
	c     *mediumCounts
	tr    *tracer
}

func (m *countingMedium) start() time.Time {
	if m.tr.on.Load() {
		return time.Now()
	}
	return time.Time{}
}

func (m *countingMedium) stop(t0 time.Time) time.Duration {
	if t0.IsZero() {
		return 0
	}
	d := time.Since(t0)
	m.c.busy.Add(int64(d))
	return d
}

func (m *countingMedium) Read(key string) ([]byte, bool) {
	t0 := m.start()
	b, ok := m.inner.Read(key)
	m.stop(t0)
	m.c.reads.Add(1)
	return b, ok
}

func (m *countingMedium) Write(key string, raw []byte) error {
	t0 := m.start()
	err := m.inner.Write(key, raw)
	if d := m.stop(t0); d > 0 {
		m.c.mu.Lock()
		m.c.writeT = append(m.c.writeT, d)
		m.c.mu.Unlock()
	}
	m.c.writes.Add(1)
	m.c.bytes.Add(int64(len(raw)))
	return err
}

func (m *countingMedium) Delete(key string) {
	t0 := m.start()
	m.inner.Delete(key)
	m.stop(t0)
	m.c.deletes.Add(1)
}

func (m *countingMedium) Keys() []string {
	t0 := m.start()
	k := m.inner.Keys()
	m.stop(t0)
	m.c.keys.Add(1)
	return k
}

func (m *countingMedium) EndFrame() { m.inner.EndFrame() }
