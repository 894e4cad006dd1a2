// Command fleetd runs the fleet host: a long-running service multiplexing
// many reconfigurable systems — one core.System per tenant — over a shared
// batched scheduler, exposed through the HTTP/JSON control plane
// (internal/fleet.API):
//
//	POST   /systems              spawn a tenant from a SpawnSpec
//	GET    /systems[/{id}]       list / status
//	DELETE /systems/{id}         kill
//	POST   /systems/{id}/inject  env, procfail, procrepair, storage
//	GET    /systems/{id}/metrics | /journal | /traces | /trace/{tid}
//	GET    /presets, /stats
//
// Usage:
//
//	fleetd -addr 127.0.0.1:8080                 # serve until SIGINT/SIGTERM
//	fleetd -data /var/lib/fleetd                # durable: recover on boot
//	fleetd -loadgen -tenants 200 -frames 400 -out BENCH_fleet.json
//
// With -data, the host journals a fleet manifest — every SpawnSpec, every
// acked injection, every kill, periodic per-tenant checkpoints — to
// CRC-checksummed replicated stable storage under the directory. A restarted
// fleetd (after SIGTERM or kill -9 alike) re-spawns every tenant and replays
// it to its pre-crash frame, byte-identical to an uninterrupted run. SIGTERM
// drains gracefully: the control plane answers 503, a final checkpoint
// commits, then the process exits. SIGINT hard-stops without the final
// checkpoint (recovery falls back to the last periodic one, like a crash).
//
// With -loadgen, fleetd boots its own host and control plane on a loopback
// port, drives it with a traffic generator — spawning scripted tenants over
// HTTP, hammering the control plane with status/inject/metrics/list traffic
// while every tenant runs to its frame budget — and writes a benchmark
// report: systems-per-core density (how many real-time systems one core
// sustains at the spec's frame rate) and control-plane latency percentiles.
// Adding -durabench appends durability rows: host recovery time, and
// steady-state memory per tenant at a deep frame with retention on vs off.
//
// Seeded in-process chaos storms — host crash-restart cycles, tenant
// panics, storage faults, torn manifest writes, every tenant checked for
// restart equivalence — are campaign arms: run them with cmd/campaign
// (-preset s4, or a matrix such as cmd/campaign/testdata/chaos-smoke.json).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/envmon"
	"repro/internal/fleet"
	"repro/internal/stable"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fleetd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "control-plane listen address (loadgen defaults to a loopback ephemeral port)")
	shards := fs.Int("shards", 0, "scheduler shard workers (default GOMAXPROCS)")
	batch := fs.Int("batch", 0, "frames per tenant per sweep (default 8)")
	dataDir := fs.String("data", "", "durable mode: journal the fleet manifest under this directory and recover from it on boot")
	retain := fs.Int64("retain-frames", 0, "default journal/trace retention horizon in frames for spawned tenants (0 = unbounded)")
	ckptEvery := fs.Int64("checkpoint-every", 0, "per-tenant checkpoint cadence in frames (default 64)")
	loadgen := fs.Bool("loadgen", false, "run the traffic generator against a self-hosted fleet and report density and control-plane latency")
	durabench := fs.Bool("durabench", false, "with -loadgen: append recovery-time and memory-per-tenant durability rows to the report")
	tenants := fs.Int("tenants", 200, "loadgen: tenants to spawn")
	frames := fs.Int64("frames", 400, "loadgen: frame budget per tenant")
	workers := fs.Int("workers", 8, "loadgen: concurrent control-plane clients")
	outPath := fs.String("out", "", "loadgen: write the JSON report here (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := fleet.Config{Shards: *shards, Batch: *batch, RetainFrames: *retain, CheckpointEvery: *ckptEvery}
	if *loadgen {
		bindAddr := *addr
		if fs.Lookup("addr").Value.String() == fs.Lookup("addr").DefValue {
			bindAddr = "127.0.0.1:0" // don't collide with a serving fleetd
		}
		return runLoadgen(out, cfg, bindAddr, *tenants, *frames, *workers, *durabench, *outPath)
	}
	return serveFleet(out, cfg, *addr, *dataDir)
}

// mountManifest opens (or initializes) the durable manifest store: two file
// replicas under dir, CRC-framed and healed by read repair. kill -9 safe by
// construction — records stage to temp files and rename into place, and a
// record torn anyway is caught by its checksum and converged past.
func mountManifest(dir string) (*stable.Store, error) {
	var media []stable.Medium
	for _, rep := range []string{"r0", "r1"} {
		m, err := stable.NewFileMedium(filepath.Join(dir, rep))
		if err != nil {
			return nil, fmt.Errorf("opening manifest replica %s: %w", rep, err)
		}
		media = append(media, m)
	}
	return stable.NewHardened(stable.MountReplicatedStore(media...)), nil
}

// serveFleet runs the host until SIGINT (hard stop) or SIGTERM (graceful
// drain). With a data directory it recovers the pre-crash fleet first.
func serveFleet(out io.Writer, cfg fleet.Config, addr, dataDir string) error {
	var host *fleet.Host
	if dataDir != "" {
		st, err := mountManifest(dataDir)
		if err != nil {
			return err
		}
		cfg.Manifest = st
		t0 := time.Now()
		h, rec, err := fleet.Recover(cfg)
		if err != nil {
			return fmt.Errorf("recovering fleet from %s: %w", dataDir, err)
		}
		host = h
		fmt.Fprintf(out, "fleetd: recovered %d tenants (%d running, %d completed, %d quarantined, %d dropped) from %s in %s\n",
			rec.Tenants, rec.Running, rec.Completed, len(rec.Quarantined), len(rec.Dropped), dataDir, time.Since(t0).Round(time.Millisecond))
		for _, id := range rec.Quarantined {
			fmt.Fprintf(out, "fleetd: tenant %s recovered quarantined\n", id)
		}
		for _, id := range rec.Dropped {
			fmt.Fprintf(out, "fleetd: unrecoverable: %s\n", id)
		}
	} else {
		host = fleet.NewHost(cfg)
	}

	srv := &http.Server{Addr: addr, Handler: fleet.NewAPI(host).Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(out, "fleetd: control plane on http://%s (POST /systems to spawn; GET /presets for specs)\n", addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		host.Close()
		return err
	case s := <-sig:
		if s == syscall.SIGTERM && dataDir != "" {
			// Graceful drain: refuse new mutations, stop the sweep, commit
			// the final checkpoint barrier, then exit. A recovered fleetd
			// resumes from exactly these frames.
			fmt.Fprintf(out, "fleetd: %v: draining (final checkpoint barrier)\n", s)
			host.Drain()
		} else {
			// Hard stop: no final checkpoint. Recovery falls back to the
			// last periodic one — same as a crash, by design.
			fmt.Fprintf(out, "fleetd: %v: hard stop\n", s)
			host.Close()
		}
		return srv.Close()
	}
}

// benchReport is the BENCH_fleet.json shape. SystemsPerCore is the density
// headline: aggregate frames per second, divided by the real-time rate one
// system needs (1s / FrameLen), per core — how many always-on tenants a
// core of this machine sustains at the spec's frame rate.
type benchReport struct {
	Tenants         int     `json:"tenants"`
	FramesPerTenant int64   `json:"frames_per_tenant"`
	FramesTotal     int64   `json:"frames_total"`
	ElapsedSec      float64 `json:"elapsed_sec"`
	AggregateFPS    float64 `json:"aggregate_fps"`
	FrameLenMS      float64 `json:"frame_len_ms"`
	Cores           int     `json:"cores"`
	SystemsPerCore  float64 `json:"systems_per_core"`
	Shards          int     `json:"shards"`
	Batch           int     `json:"batch"`
	// Control-plane traffic: total ops issued by the generator while the
	// fleet ran, and their latency percentiles.
	Ops      int     `json:"ops"`
	OpErrors int     `json:"op_errors"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	P99MS    float64 `json:"p99_ms"`
	// Durability rows (present with -durabench).
	Durability *durabilityReport `json:"durability,omitempty"`
}

// durabilityReport holds the -durabench rows: how long a crashed host takes
// to recover its whole fleet by deterministic replay, and the steady-state
// heap cost of one tenant at a deep frame — flat with the retention window
// on, linear in frames with it off.
type durabilityReport struct {
	RecoveryTenants     int     `json:"recovery_tenants"`
	RecoveryFrames      int64   `json:"recovery_frames_per_tenant"`
	RecoverySec         float64 `json:"recovery_sec"`
	RecoveryMSPerTenant float64 `json:"recovery_ms_per_tenant"`
	MemFrames           int64   `json:"mem_frames"`
	MemRetainFrames     int64   `json:"mem_retain_frames"`
	MemPerTenantRetain  int64   `json:"mem_per_tenant_bytes_retained"`
	MemPerTenantGrow    int64   `json:"mem_per_tenant_bytes_unbounded"`
}

// runDurabench measures the two durability numbers. Recovery: a durable
// fleet runs to completion over file-backed manifest replicas, the host is
// hard-stopped (no drain — the kill -9 shape), and the wall time of
// fleet.Recover — manifest load plus full deterministic replay of every
// tenant — is the row. Memory: identical systems run to a deep frame with
// the retention window on vs off; the heap delta per tenant shows the
// bounded-state contract (flat vs linear).
func runDurabench(out io.Writer, cfg fleet.Config, tenants int, frames int64) (*durabilityReport, error) {
	rep := &durabilityReport{
		RecoveryTenants: tenants,
		RecoveryFrames:  frames,
		MemFrames:       20_000,
		MemRetainFrames: 64,
	}
	fmt.Fprintf(out, "fleetd durabench: crash-recovering %d tenants x %d frames\n", tenants, frames)
	d, err := measureRecovery(cfg, tenants, frames)
	if err != nil {
		return nil, fmt.Errorf("recovery bench: %w", err)
	}
	rep.RecoverySec = d.Seconds()
	rep.RecoveryMSPerTenant = float64(d) / float64(time.Millisecond) / float64(tenants)

	fmt.Fprintf(out, "fleetd durabench: measuring heap per tenant at frame %d\n", rep.MemFrames)
	retained, err := measureMemPerTenant(rep.MemFrames, rep.MemRetainFrames)
	if err != nil {
		return nil, fmt.Errorf("retained-memory bench: %w", err)
	}
	unbounded, err := measureMemPerTenant(rep.MemFrames, -1)
	if err != nil {
		return nil, fmt.Errorf("unbounded-memory bench: %w", err)
	}
	rep.MemPerTenantRetain, rep.MemPerTenantGrow = retained, unbounded
	return rep, nil
}

// measureRecovery times fleet.Recover over a crashed durable host.
func measureRecovery(cfg fleet.Config, tenants int, frames int64) (time.Duration, error) {
	dir, err := os.MkdirTemp("", "fleetd-durabench-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := mountManifest(dir)
	if err != nil {
		return 0, err
	}
	cfg.Manifest = st
	host := fleet.NewHost(cfg)
	presets := fleet.Presets()
	for i := 0; i < tenants; i++ {
		ss := fleet.SpawnSpec{
			ID:     fmt.Sprintf("dura-%d", i),
			Preset: presets[i%len(presets)],
			Seed:   int64(1 + i),
			Frames: frames,
			// A degrade/repair pair so every replay re-runs a real
			// reconfiguration, not idle ticking.
			Script: []envmon.Event{
				{Frame: int64(10 + i%40), Factor: "alt1", Value: "failed"},
				{Frame: frames/2 + int64(i%40), Factor: "alt1", Value: "ok"},
			},
		}
		if _, err := host.Spawn(ss); err != nil {
			host.Close()
			return 0, fmt.Errorf("spawning %s: %w", ss.ID, err)
		}
	}
	for !allCompleted(host) {
		time.Sleep(2 * time.Millisecond)
	}
	host.Close() // hard stop: no drain, the kill -9 shape

	st2, err := mountManifest(dir)
	if err != nil {
		return 0, err
	}
	cfg.Manifest = st2
	t0 := time.Now()
	h2, rec, err := fleet.Recover(cfg)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	defer h2.Drain()
	if rec.Tenants != tenants || len(rec.Dropped) > 0 {
		return 0, fmt.Errorf("recovered %d/%d tenants, %d dropped", rec.Tenants, tenants, len(rec.Dropped))
	}
	return d, nil
}

// measureMemPerTenant runs a batch of identical systems to a deep frame and
// returns the live heap delta per system after a full GC.
func measureMemPerTenant(frames, retain int64) (int64, error) {
	const batch = 8
	systems := make([]*core.System, 0, batch)
	defer func() {
		for _, s := range systems {
			s.Close()
		}
	}()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batch; i++ {
		opts, err := fleet.SpawnOptions(fleet.SpawnSpec{Preset: "threeconfig", Seed: int64(100 + i), RetainFrames: retain})
		if err != nil {
			return 0, err
		}
		sys, err := core.NewSystem(opts)
		if err != nil {
			return 0, err
		}
		systems = append(systems, sys)
		if err := sys.StepTo(frames); err != nil {
			return 0, err
		}
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / batch, nil
}

// runLoadgen boots a fleet, spawns scripted tenants over the real HTTP
// control plane, keeps query/inject traffic flowing from `workers` clients
// until every tenant completes its frame budget, and writes the report.
func runLoadgen(out io.Writer, cfg fleet.Config, addr string, tenants int, frames int64, workers int, durabench bool, outPath string) error {
	if tenants <= 0 || frames <= 0 || workers <= 0 {
		return fmt.Errorf("-tenants, -frames and -workers must be positive")
	}
	host := fleet.NewHost(cfg)
	defer host.Close()
	srv := &http.Server{Handler: fleet.NewAPI(host).Handler()}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", addr, err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(out, "fleetd loadgen: %d tenants x %d frames, %d clients, control plane %s\n",
		tenants, frames, workers, base)

	client := &http.Client{Timeout: 30 * time.Second}
	presets := fleet.Presets()
	lat := newLatencies(workers + 1) // slot 0 is the spawn loop's

	start := time.Now()

	// Query/inject workers run concurrently with spawning (the fleet starts
	// ticking at the first spawn, so control-plane traffic must overlap the
	// whole run, not trail it). Workers target already-spawned tenants only;
	// injections on tenants that already completed answer 400 — traffic, not
	// errors.
	var spawnCount atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				n := spawnCount.Load()
				if n == 0 {
					time.Sleep(time.Millisecond)
					continue
				}
				id := fmt.Sprintf("load-%d", (w*7919+i)%int(n))
				var err error
				switch i % 5 {
				case 0:
					_, err = lat.do(client, w, "GET", base+"/systems/"+id, nil)
				case 1:
					inj := fleet.Injection{Kind: "env", Factor: "alt2", Value: "failed"}
					if i%2 == 0 {
						inj.Value = "ok"
					}
					_, err = lat.do(client, w, "POST", base+"/systems/"+id+"/inject", inj)
				case 2:
					_, err = lat.do(client, w, "GET", base+"/systems/"+id+"/metrics", nil)
				case 3:
					_, err = lat.do(client, w, "GET", base+"/systems", nil)
				default:
					_, err = lat.do(client, w, "GET", base+"/stats", nil)
				}
				if err != nil {
					lat.fail(w)
				}
			}
		}()
	}

	// Spawn loop: every spawn is a measured control-plane op (slot 0). Each
	// tenant carries a staggered degrade/repair script so the run exercises
	// full reconfigurations, not idle ticking.
	for i := 0; i < tenants; i++ {
		ss := fleet.SpawnSpec{
			ID:     fmt.Sprintf("load-%d", i),
			Preset: presets[i%len(presets)],
			Seed:   int64(1 + i),
			Frames: frames,
			Script: []envmon.Event{
				{Frame: int64(10 + i%40), Factor: "alt1", Value: "failed"},
				{Frame: frames/2 + int64(i%40), Factor: "alt1", Value: "ok"},
			},
		}
		code, err := lat.do(client, 0, "POST", base+"/systems", ss)
		if err != nil || code != http.StatusCreated {
			close(done)
			wg.Wait()
			if err == nil {
				err = fmt.Errorf("status %d", code)
			}
			return fmt.Errorf("spawning %s: %w", ss.ID, err)
		}
		spawnCount.Store(int64(i + 1))
	}

	for !allCompleted(host) {
		time.Sleep(5 * time.Millisecond)
	}
	elapsed := time.Since(start)
	close(done)
	wg.Wait()

	framesTotal := host.FramesStepped()
	frameLen := 20 * time.Millisecond // the threeconfig family's FrameLen
	fps := float64(framesTotal) / elapsed.Seconds()
	cores := runtime.GOMAXPROCS(0)
	durs, errs := lat.merge()
	rep := benchReport{
		Tenants:         tenants,
		FramesPerTenant: frames,
		FramesTotal:     framesTotal,
		ElapsedSec:      elapsed.Seconds(),
		AggregateFPS:    fps,
		FrameLenMS:      float64(frameLen) / float64(time.Millisecond),
		Cores:           cores,
		// aggregate fps / (frames one real-time system needs per second),
		// per core: sustained always-on tenants per core.
		SystemsPerCore: fps * frameLen.Seconds() / float64(cores),
		Shards:         host.Stats().Shards,
		Batch:          host.Stats().Batch,
		Ops:            len(durs),
		OpErrors:       errs,
		P50MS:          percentileMS(durs, 0.50),
		P95MS:          percentileMS(durs, 0.95),
		P99MS:          percentileMS(durs, 0.99),
	}
	if durabench {
		dura, err := runDurabench(out, fleet.Config{Shards: cfg.Shards, Batch: cfg.Batch}, 50, 400)
		if err != nil {
			return err
		}
		rep.Durability = dura
	}

	w, closeOut, err := cli.Output(outPath, out)
	if err != nil {
		return err
	}
	if err := cli.WriteJSON(w, rep); err != nil {
		closeOut()
		return err
	}
	if err := closeOut(); err != nil {
		return err
	}
	if outPath != "" && outPath != "-" {
		fmt.Fprintf(out, "fleetd loadgen: %.0f frames/s aggregate, %.1f systems/core, p99 %.2f ms -> %s\n",
			fps, rep.SystemsPerCore, rep.P99MS, outPath)
	}
	return nil
}

// allCompleted reports whether every tenant reached its frame budget.
func allCompleted(h *fleet.Host) bool {
	for _, st := range h.List() {
		if st.State == fleet.StateRunning {
			return false
		}
	}
	return true
}

// latencies collects per-worker op latencies without shared-slice contention
// (slot 0 belongs to the spawn loop and worker 0, which never overlap).
type latencies struct {
	mu    []sync.Mutex
	durs  [][]time.Duration
	fails []int
}

func newLatencies(workers int) *latencies {
	return &latencies{
		mu:    make([]sync.Mutex, workers),
		durs:  make([][]time.Duration, workers),
		fails: make([]int, workers),
	}
}

// do issues one timed control-plane request, draining and closing the body.
func (l *latencies) do(client *http.Client, slot int, method, url string, body any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	l.mu[slot].Lock()
	l.durs[slot] = append(l.durs[slot], d)
	l.mu[slot].Unlock()
	return resp.StatusCode, nil
}

func (l *latencies) fail(slot int) {
	l.mu[slot].Lock()
	l.fails[slot]++
	l.mu[slot].Unlock()
}

// merge gathers every worker's samples, sorted for percentile lookup.
func (l *latencies) merge() ([]time.Duration, int) {
	var all []time.Duration
	var fails int
	for i := range l.durs {
		l.mu[i].Lock()
		all = append(all, l.durs[i]...)
		fails += l.fails[i]
		l.mu[i].Unlock()
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	return all, fails
}

// percentileMS returns the p-quantile of sorted samples in milliseconds.
func percentileMS(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}
