package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/envmon"
	"repro/internal/fleet"
	"repro/internal/stable"
	"repro/internal/telemetry"
)

// opKind is one kind of control-plane request in a client mix.
type opKind int

const (
	opInject opKind = iota
	opStatus
	opMetrics
	opList
	opStats
	opJournal
	opTraces
	numOps
)

var opNames = [numOps]string{"inject", "status", "metrics", "list", "stats", "journal", "traces"}

// fleetPlan is one fleet workload, fully determined by its constructor's
// arguments and the seed handed to run.
type fleetPlan struct {
	durable bool
	tenants int
	// budget is every tenant's frame budget.
	budget int64
	retain int64
	// churnEvery > 0 scripts an alt1 flip every churnEvery frames at a
	// seeded phase per tenant.
	churnEvery int64
	// mix weights the client's requests.
	mix [numOps]int
	// flipAlt2 makes every injection reconfigure (alt2 alternates
	// failed/ok per tenant); otherwise injections re-assert alt2=ok.
	flipAlt2 bool
	// setupReps is how many times the fleet is set up; the last set-up
	// fleet carries the load.
	setupReps int
	// sample is how many seeded tenants the equivalence gates re-execute.
	sample int
	shards int
	// crash, when set, tampers with the surviving manifest replicas
	// between the hard stop and the remount (self-tests plant faults).
	crash func([]*stable.MemMedium)
	// sliceEvery is the load window length, and in a traced run the
	// tracer's on/off interleave period.
	sliceEvery time.Duration
	// deadline bounds the load phase.
	deadline time.Duration
}

// injectHorizon is the share of the frame budget past which the client no
// longer injects into a tenant: tenants spawned early race ahead while the
// fleet fills up, and an injection into a completed tenant is refused.
const injectHorizon = 0.9

// rateWindow is the shortest interval the client estimates the per-tenant
// frame rate over.
const rateWindow = 200 * time.Millisecond

func shardsFor(nproc int) int {
	if nproc > 1 {
		return nproc - 1
	}
	return 1
}

func (p fleetPlan) config() fleet.Config {
	return fleet.Config{Shards: p.shards, RetainFrames: p.retain}
}

// specs derives the tenants from the seed: presets spread evenly, seeded
// trace seeds and churn phases, seeded spawn order.
func (p fleetPlan) specs(rng *rand.Rand) []fleet.SpawnSpec {
	presets := fleet.Presets()
	specs := make([]fleet.SpawnSpec, p.tenants)
	for i := range specs {
		ss := fleet.SpawnSpec{
			ID:     fmt.Sprintf("t%04d", i),
			Preset: presets[i%len(presets)],
			Seed:   1 + rng.Int63n(1<<40),
			Frames: p.budget,
		}
		if p.churnEvery > 0 {
			ss.Script = churnScript(rng.Int63n(p.churnEvery), p.churnEvery, p.budget)
		}
		specs[i] = ss
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// churnScript flips alt1 every `every` frames from `phase` on.
func churnScript(phase, every, budget int64) []envmon.Event {
	var script []envmon.Event
	val := "failed"
	for f := phase; f < budget; f += every {
		script = append(script, envmon.Event{Frame: f, Factor: "alt1", Value: val})
		if val == "failed" {
			val = "ok"
		} else {
			val = "failed"
		}
	}
	return script
}

// mountManifest mounts the durable manifest over two replicas, CRC-framed
// and healed by read repair, the way fleetd -data mounts its two file
// replicas. The replicas are in-memory media: they outlive a host, so a
// remount after a hard stop sees exactly what survived it. With counts set
// every replica is wrapped in a counting decorator.
func mountManifest(replicas []*stable.MemMedium, counts *mediumCounts, tr *tracer) *stable.Store {
	media := make([]stable.Medium, len(replicas))
	for i, m := range replicas {
		media[i] = m
		if counts != nil {
			media[i] = &countingMedium{inner: m, c: counts, tr: tr}
		}
	}
	return stable.NewHardened(stable.MountReplicatedStore(media...))
}

// fleetEnv is a running host behind its HTTP control plane on loopback.
type fleetEnv struct {
	host    *fleet.Host
	srv     *http.Server
	served  chan error
	cl      *client
	stopped bool
}

func serveHost(h *fleet.Host, tr *tracer) (*fleetEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.Close()
		return nil, err
	}
	var handler http.Handler = fleet.NewAPI(h).Handler()
	if tr != nil {
		handler = tr.wrap(handler)
	}
	e := &fleetEnv{host: h, srv: &http.Server{Handler: handler}, served: make(chan error, 1)}
	go func() { e.served <- e.srv.Serve(ln) }()
	e.cl = newClient(ln.Addr())
	return e, nil
}

// stop closes the control plane and hard-stops the host: no drain, no
// final checkpoint, the kill -9 shape.
func (e *fleetEnv) stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	e.cl.close()
	e.srv.Close()
	<-e.served
	e.host.Close()
}

// tenantView is what the client last learned about one tenant.
type tenantView struct {
	frame int64
	seen  time.Time
	// failed is the alt2 value last injected.
	failed bool
	acks   []fleet.AckedInjection
}

// fleetRun is everything one fleet workload run measured.
type fleetRun struct {
	// setup holds one slice per set-up, its work one set-up.
	setup   []slice
	load    time.Duration
	frames  int64
	lat     [numOps]timings
	log     opLog
	heapMB  float64
	recover time.Duration
	mount   time.Duration
	// windows are the load cut into sliceEvery intervals; in a traced run
	// they alternate tracer off and on.
	windows []slice
	traced  bool
	// traced-run extras
	// onTime is the load time spent with the tracer on; clientOn holds
	// the client's read latencies taken then, for the transport split.
	onTime            time.Duration
	clientOn          durations
	loadIO, recoverIO mediumSnapshot
	writeT            durations
	routes            map[string]durations
	// fallbacks counts injections the client turned into status reads
	// because it knew of no tenant well short of its budget.
	fallbacks int
	batch     int
	layer     metrics
	gates     []string
}

func (r *fleetRun) fail(format string, args ...any) {
	r.gates = append(r.gates, fmt.Sprintf(format, args...))
}

// runFleet executes one fleet workload: set-up repetitions, the client
// load until every tenant completes its budget, the correctness gates, and
// for a durable host the crash, remount and recovery.
func runFleet(p fleetPlan, seed int64, tr *tracer) (*fleetRun, error) {
	rng := rand.New(rand.NewSource(seed))
	specs := p.specs(rng)
	crng := rand.New(rand.NewSource(seed*7919 + 17))
	bodies := make([][]byte, len(specs))
	for i, ss := range specs {
		b, err := json.Marshal(ss)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	res := &fleetRun{traced: tr != nil, routes: map[string]durations{}, layer: metrics{}}

	var env *fleetEnv
	var replicas []*stable.MemMedium
	var counts *mediumCounts
	defer func() {
		if env != nil {
			env.stop()
		}
	}()
	for r := 0; r < p.setupReps; r++ {
		if env != nil {
			env.stop()
		}
		cfg := p.config()
		if p.durable {
			replicas = []*stable.MemMedium{stable.NewMemMedium(), stable.NewMemMedium()}
			if tr != nil {
				counts = &mediumCounts{}
			}
		}
		t0, cpu0 := time.Now(), readCPU()
		if p.durable {
			cfg.Manifest = mountManifest(replicas, counts, tr)
		}
		e, err := serveHost(fleet.NewHost(cfg), tr)
		if err != nil {
			return nil, err
		}
		env = e
		if tr != nil {
			tr.on.Store(true)
		}
		for i, b := range bodies {
			status, _, err := env.cl.do(http.MethodPost, "/systems", b)
			if !res.log.record("spawn", status, err) || status != http.StatusCreated {
				return nil, fmt.Errorf("spawning %s: status %d: %v", specs[i].ID, status, err)
			}
		}
		res.setup = append(res.setup, slice{work: 1, d: time.Since(t0), steal: stealShare(cpu0, readCPU())})
		if tr != nil {
			tr.on.Store(false)
		}
	}

	views := make(map[string]*tenantView, len(specs))
	ids := make([]string, len(specs))
	for i, ss := range specs {
		ids[i] = ss.ID
		views[ss.ID] = &tenantView{}
	}
	if err := p.load(env, ids, views, crng, tr, counts, res); err != nil {
		return nil, err
	}

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.heapMB = float64(mem.HeapAlloc) / (1 << 20)
	res.batch = env.host.Stats().Batch
	if tr != nil {
		tenantLayers(env.host, ids, res.layer)
	}

	sample := sampleIDs(rand.New(rand.NewSource(seed+1)), ids, p.sample)
	res.checkAtRest(env.host, ids, p.budget, "before crash")
	res.checkEquivalence(env.host, sample, views, "before crash")
	res.checkProperties(env.host, sample, views)
	if !p.durable {
		return res, nil
	}

	// The hard stop. Dropping the stopped host lets the collector reclaim
	// it, so recovery does not run with two fleets in memory.
	env.stop()
	env = nil
	var before mediumSnapshot
	if counts != nil {
		before = counts.snapshot()
		tr.on.Store(true)
	}
	if p.crash != nil {
		p.crash(replicas)
	}
	t0 := time.Now()
	cfg := p.config()
	cfg.Manifest = mountManifest(replicas, counts, tr)
	res.mount = time.Since(t0)
	t1 := time.Now()
	h, rec, err := fleet.Recover(cfg)
	res.recover = time.Since(t1)
	if counts != nil {
		res.recoverIO = counts.snapshot().minus(before)
		tr.on.Store(false)
	}
	if err != nil {
		return nil, fmt.Errorf("recovering: %w", err)
	}
	defer h.Close()
	if rec.Tenants != len(ids) || rec.Completed != len(ids) || len(rec.Dropped) > 0 || len(rec.Quarantined) > 0 {
		res.fail("recovery: %d tenants (%d completed) of %d, dropped %v, quarantined %v",
			rec.Tenants, rec.Completed, len(ids), rec.Dropped, rec.Quarantined)
	}
	res.checkAtRest(h, ids, p.budget, "after recovery")
	res.checkEquivalence(h, sample, views, "after recovery")
	return res, nil
}

// load runs the closed-loop client until every tenant has completed its
// frame budget. fleet_fps counts the frames stepped from the last spawn ack
// to that moment.
func (p fleetPlan) load(env *fleetEnv, ids []string, views map[string]*tenantView, rng *rand.Rand, tr *tracer, counts *mediumCounts, res *fleetRun) error {
	h, cl := env.host, env.cl
	total := int64(len(ids)) * p.budget
	weights := 0
	for _, w := range p.mix {
		weights += w
	}
	// rate is the client's estimate of one running tenant's frames/s,
	// from the last two listings; zero until then, so no injection goes
	// out before the client has seen where the tenants are.
	var rate float64
	var lastSum int64
	var lastList time.Time
	var reqSeq int

	frames0 := h.FramesStepped()
	t0 := time.Now()
	clock := newWindowClock(p.sliceEvery)
	winFrames := frames0
	var ioStart mediumSnapshot
	if counts != nil {
		ioStart = counts.snapshot()
	}
	eligible := func(id string, now time.Time) bool {
		v := views[id]
		if v.seen.IsZero() || rate == 0 {
			return false
		}
		predicted := float64(v.frame) + 2*rate*now.Sub(v.seen).Seconds()
		return predicted < injectHorizon*float64(p.budget)
	}
	for h.FramesStepped() < total {
		now := time.Now()
		if now.Sub(t0) > p.deadline {
			return fmt.Errorf("load did not complete within %s (%d of %d frames)", p.deadline, h.FramesStepped(), total)
		}
		if f := h.FramesStepped(); res.closeWindow(clock, tr, f-winFrames, false) {
			winFrames = f
		}

		kind := opKind(0)
		for x := rng.Intn(weights); x >= p.mix[kind]; kind++ {
			x -= p.mix[kind]
		}
		if lastList.IsZero() {
			kind = opList
		}
		id := ids[rng.Intn(len(ids))]
		if kind == opInject {
			found := false
			for try := 0; try < 8 && !found; try++ {
				if eligible(id, now) {
					found = true
				} else {
					id = ids[rng.Intn(len(ids))]
				}
			}
			if !found {
				kind = opStatus
				res.fallbacks++
			}
		}

		var status int
		var d time.Duration
		var err error
		v := views[id]
		switch kind {
		case opInject:
			reqSeq++
			inj := fleet.Injection{Kind: "env", Factor: "alt2", Value: "ok", RequestID: fmt.Sprintf("pb-%d", reqSeq)}
			if p.flipAlt2 && !v.failed {
				inj.Value = "failed"
			}
			body, _ := json.Marshal(inj)
			status, d, err = cl.do(http.MethodPost, "/systems/"+id+"/inject", body)
			if res.log.record("inject", status, err) {
				var ack struct {
					AppliedFrame int64 `json:"applied_frame"`
				}
				if jerr := json.Unmarshal(cl.body.Bytes(), &ack); jerr != nil {
					return fmt.Errorf("inject ack: %w", jerr)
				}
				v.acks = append(v.acks, fleet.AckedInjection{Inj: inj, Applied: ack.AppliedFrame})
				v.failed = inj.Value == "failed"
				v.frame, v.seen = ack.AppliedFrame+1, time.Now()
			}
		case opStatus:
			status, d, err = cl.do(http.MethodGet, "/systems/"+id, nil)
			if res.log.record("status", status, err) {
				var st fleet.Status
				if jerr := json.Unmarshal(cl.body.Bytes(), &st); jerr != nil {
					return fmt.Errorf("status body: %w", jerr)
				}
				v.frame, v.seen = st.Frame, time.Now()
			}
		case opList:
			status, d, err = cl.do(http.MethodGet, "/systems", nil)
			if res.log.record("list", status, err) {
				var list struct {
					Systems []fleet.Status `json:"systems"`
				}
				if jerr := json.Unmarshal(cl.body.Bytes(), &list); jerr != nil {
					return fmt.Errorf("list body: %w", jerr)
				}
				seen := time.Now()
				var sum int64
				running := 0
				for _, st := range list.Systems {
					sum += st.Frame
					if st.State == fleet.StateRunning {
						running++
					}
					if tv, ok := views[st.ID]; ok {
						tv.frame, tv.seen = st.Frame, seen
					}
				}
				// A rate over a short window can read zero while one slow
				// sweep is in flight; estimate over at least rateWindow.
				if lastList.IsZero() {
					lastSum, lastList = sum, seen
				} else if dt := seen.Sub(lastList); dt >= rateWindow && running > 0 {
					rate = float64(sum-lastSum) / dt.Seconds() / float64(running)
					lastSum, lastList = sum, seen
				}
			}
		default:
			path := "/stats"
			switch kind {
			case opMetrics:
				path = "/systems/" + id + "/metrics"
			case opJournal:
				path = "/systems/" + id + "/journal"
			case opTraces:
				path = "/systems/" + id + "/traces"
			}
			status, d, err = cl.do(http.MethodGet, path, nil)
			res.log.record(opNames[kind], status, err)
		}
		if err == nil && status >= 200 && status < 300 {
			res.lat[kind] = append(res.lat[kind], timed{d: d, win: clock.index()})
			if kind != opInject && tr != nil && tr.on.Load() {
				res.clientOn = append(res.clientOn, d)
			}
		}
	}
	res.load = time.Since(t0)
	res.frames = total - frames0
	res.closeWindow(clock, tr, total-winFrames, true)
	res.windows = clock.windows
	if tr != nil {
		tr.on.Store(false)
		if counts != nil {
			res.loadIO = counts.snapshot().minus(ioStart)
			counts.mu.Lock()
			res.writeT = append(durations(nil), counts.writeT...)
			counts.mu.Unlock()
		}
		tr.mu.Lock()
		for k, v := range tr.routes {
			res.routes[k] = append(durations(nil), v...)
		}
		tr.mu.Unlock()
	}
	return nil
}

// closeWindow closes the clock's current load window once it is long
// enough; in a traced run it marks whether the tracer was on and flips it
// for the next window.
func (r *fleetRun) closeWindow(c *windowClock, tr *tracer, frames int64, force bool) bool {
	if !c.tick(float64(frames), force) {
		return false
	}
	if tr != nil {
		w := &c.windows[len(c.windows)-1]
		w.on = tr.on.Load()
		if w.on {
			r.onTime += w.d
		}
		tr.on.Store(!w.on)
	}
	return true
}

// sampleIDs picks n distinct tenants with a seeded generator.
func sampleIDs(rng *rand.Rand, ids []string, n int) []string {
	if n > len(ids) {
		n = len(ids)
	}
	perm := rng.Perm(len(ids))
	out := make([]string, n)
	for i := range out {
		out[i] = ids[perm[i]]
	}
	return out
}

// checkAtRest fails the run unless every tenant is present and completed
// exactly at its frame budget: none missing, dropped or quarantined.
func (r *fleetRun) checkAtRest(h *fleet.Host, ids []string, budget int64, when string) {
	for _, id := range ids {
		t, ok := h.Get(id)
		if !ok {
			r.fail("%s: tenant %s missing", when, id)
			continue
		}
		if st := t.Status(); st.State != fleet.StateCompleted || st.Frame != budget {
			r.fail("%s: tenant %s %s at frame %d (%s), want completed at %d", when, id, st.State, st.Frame, st.Reason, budget)
		}
	}
}

// checkEquivalence re-executes the sampled tenants' recipes — spawn spec
// plus the acks the client collected — standalone and requires the
// byte-identical journal and trace reports.
func (r *fleetRun) checkEquivalence(h *fleet.Host, sample []string, views map[string]*tenantView, when string) {
	for _, id := range sample {
		t, ok := h.Get(id)
		if !ok {
			r.fail("%s: sampled tenant %s missing", when, id)
			continue
		}
		if err := fleet.CheckEquivalence(t, views[id].acks); err != nil {
			r.fail("%s: %v", when, err)
		}
	}
}

// checkProperties replays each sampled tenant's recipe with unbounded
// retention, so the whole run's trace is kept, and requires SP1-SP4 and the
// membership invariants to hold over it.
func (r *fleetRun) checkProperties(h *fleet.Host, sample []string, views map[string]*tenantView) {
	for _, id := range sample {
		t, ok := h.Get(id)
		if !ok {
			continue
		}
		ss := t.Spec()
		ss.RetainFrames = -1
		sys, err := replay(ss, views[id].acks)
		if err != nil {
			r.fail("replaying %s: %v", id, err)
			continue
		}
		if v := sys.CheckProperties(); len(v) > 0 {
			r.fail("tenant %s: %d SP violations, first: %v", id, len(v), v[0])
		}
		if v := sys.CheckMembership(); len(v) > 0 {
			r.fail("tenant %s: %d membership violations, first: %v", id, len(v), v[0])
		}
		sys.Close()
	}
}

// replay runs a recipe of env injections standalone to its frame budget.
func replay(ss fleet.SpawnSpec, acks []fleet.AckedInjection) (*core.System, error) {
	opts, err := fleet.SpawnOptions(ss)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(opts)
	if err != nil {
		return nil, err
	}
	for _, a := range acks {
		if a.Inj.Kind != "env" {
			sys.Close()
			return nil, errors.New("replay handles env injections only")
		}
		if err := sys.StepTo(a.Applied); err != nil {
			sys.Close()
			return nil, err
		}
		sys.InjectFactor(envmon.Factor(a.Inj.Factor), a.Inj.Value)
	}
	if err := sys.StepTo(ss.Frames); err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

// tenantLayers sums the SCRAM counters and journal sizes over every
// tenant's registry snapshot and flight-recorder journal.
func tenantLayers(h *fleet.Host, ids []string, m metrics) {
	var triggers, completes, retargets, chained, events, bytes int64
	var window telemetry.HistogramSnapshot
	for _, id := range ids {
		t, ok := h.Get(id)
		if !ok {
			continue
		}
		snap, ok := t.TelemetrySnapshot()
		if !ok {
			continue
		}
		c := snap.Metrics.Counters
		triggers += c["scram/triggers"]
		completes += c["scram/completes"]
		retargets += c["scram/retargets"]
		chained += c["scram/chained"]
		mergeHist(&window, snap.Metrics.Histograms["scram/window_frames"])
		events += int64(len(snap.Events))
		var cw countWriter
		if err := telemetry.WriteJournal(&cw, snap.Events); err == nil {
			bytes += cw.n
		}
	}
	n := float64(len(ids))
	m.set("scram.triggers", float64(triggers), "count", len(ids))
	m.set("scram.completes", float64(completes), "count", len(ids))
	m.set("scram.retargets", float64(retargets), "count", len(ids))
	m.set("scram.chained", float64(chained), "count", len(ids))
	m.set("scram.window_frames.p50", histQuantile(window, 0.5), "frames", int(window.Count))
	m.set("telemetry.journal_events", float64(events)/n, "count", len(ids))
	m.set("telemetry.journal_bytes", float64(bytes)/n, "bytes", len(ids))
}

// countWriter counts the bytes written through it.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// mergeHist adds src's buckets into dst (equal bounds, or dst empty).
func mergeHist(dst *telemetry.HistogramSnapshot, src telemetry.HistogramSnapshot) {
	if src.Count == 0 {
		return
	}
	if dst.Count == 0 && len(dst.Counts) == 0 {
		dst.Bounds = append([]int64(nil), src.Bounds...)
		dst.Counts = make([]int64, len(src.Counts))
	}
	for i := range src.Counts {
		if i < len(dst.Counts) {
			dst.Counts[i] += src.Counts[i]
		}
	}
	dst.Count += src.Count
	dst.Sum += src.Sum
	if src.Max > dst.Max {
		dst.Max = src.Max
	}
}

// histQuantile returns the upper bound of the bucket holding the
// q-quantile observation (the maximum for the +Inf bucket).
func histQuantile(h telemetry.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(q*float64(h.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			if i < len(h.Bounds) {
				return float64(h.Bounds[i])
			}
			return float64(h.Max)
		}
	}
	return float64(h.Max)
}
