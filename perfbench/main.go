// Command perfbench is the repository's benchmark: it drives the fleet host
// and the campaign engine end to end through their public surfaces, checks
// their outputs, and prints every metric BENCHMARK.json names.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output is a JSON object whose
// metrics are BENCHMARK.json's end-to-end metrics; with --trace 1 they are
// its per-layer metrics, taken from a run with the benchmark-side layer
// wrappers on and the layer probes added. The line before it is a JSON
// report with every metric measured (with sample counts), the host stamp,
// ops and failures by status code, and the failed correctness gates. The
// exit status is 0 only when every gate passed and no operation failed.
//
// run.py builds this program from the checkout and runs it; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/fleet"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// names and units it must print.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	// workdir is the directory, inside the checkout, that holds the
	// durable manifests while a run uses them.
	workdir string
	// tiny shrinks every workload to a few tenants and frames (self-tests).
	tiny bool
}

// outcome is one run's full report.
type outcome struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      int            `json:"seconds"`
	Trace        bool           `json:"trace"`
	Stamp        stamp          `json:"stamp"`
	Attempted    int            `json:"attempted"`
	Failed       int            `json:"failed"`
	FailedByCode map[string]int `json:"failed_by_code,omitempty"`
	FirstFailure string         `json:"first_failure,omitempty"`
	// Gates lists every correctness gate that failed; empty is correct.
	Gates        []string `json:"failed_gates,omitempty"`
	ReportSHA256 string   `json:"campaign_report_sha256,omitempty"`
	Metrics      metrics  `json:"metrics"`
}

func (o *outcome) correct() bool { return len(o.Gates) == 0 && o.Failed == 0 }

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	fs.IntVar(&o.seconds, "seconds", 10, "target measured seconds")
	traceFlag := fs.Int("trace", 0, "1 for the traced per-layer run")
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "scratch directory for durable manifests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	o.traced = *traceFlag == 1
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	known := false
	for _, w := range spec.Workloads {
		known = known || w.Name == o.workload
	}
	if !known {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	out, err := measure(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res, err := resultFor(spec, out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	printTable(stdout, out)
	rep, _ := json.Marshal(out)
	fmt.Fprintf(stdout, "report %s\n", rep)
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		for _, g := range out.Gates {
			fmt.Fprintf(stderr, "perfbench: gate failed: %s\n", g)
		}
		if out.Failed > 0 {
			fmt.Fprintf(stderr, "perfbench: %d of %d ops failed %v; first: %s\n", out.Failed, out.Attempted, out.FailedByCode, out.FirstFailure)
		}
		return 1
	}
	return 0
}

// resultFor picks the metrics BENCHMARK.json names for the run's mode:
// the end-to-end ones, or the per-layer ones for a traced run.
func resultFor(spec *benchSpec, out *outcome) (result, error) {
	want := spec.EndToEnd
	if out.Trace {
		want = spec.PerLayer
	}
	res := result{Correct: out.correct(), Attempted: out.Attempted, Failed: out.Failed, Metrics: map[string]metric{}}
	for _, sm := range want {
		mv, ok := out.Metrics[sm.Name]
		if !ok || mv.Unit != sm.Unit {
			return res, fmt.Errorf("measured no %s in %s (got %+v)", sm.Name, sm.Unit, mv)
		}
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			return res, fmt.Errorf("%s is %v", sm.Name, mv.Value)
		}
		res.Metrics[sm.Name] = metric{Value: mv.Value, Unit: mv.Unit}
	}
	return res, nil
}

func printTable(w io.Writer, o *outcome) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v ops=%d failed=%d gates_failed=%d\n",
		o.Workload, o.Seed, o.Seconds, o.Trace, o.Attempted, o.Failed, len(o.Gates))
	fmt.Fprintf(w, "host: %s, nproc=%d GOMAXPROCS=%d %s git=%s shards=%d workers=%d manifest=%q filemedium_fs=%s\n",
		o.Stamp.CPUModel, o.Stamp.NProc, o.Stamp.GOMAXPROCS, o.Stamp.GoVersion, o.Stamp.GitSHA,
		o.Stamp.Shards, o.Stamp.Workers, o.Stamp.Manifest, o.Stamp.FileMediumFS)
	if o.ReportSHA256 != "" {
		fmt.Fprintf(w, "campaign report sha256 %s\n", o.ReportSHA256)
	}
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mv := o.Metrics[n]
		fmt.Fprintf(w, "  %-42s %14.4f %-9s n=%d\n", n, mv.Value, mv.Unit, mv.Samples)
	}
}

// measure runs one workload, and in a traced run the layer probes after
// it, and assembles every metric.
func measure(o options) (*outcome, error) {
	nproc := runtime.NumCPU()
	out := &outcome{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.traced, Stamp: hostStamp(), Metrics: metrics{}}
	m := out.Metrics
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	// Every probe and the scaling run use the fleet workloads' tenant
	// generator; campaign-mixed has no tenants of its own.
	quietFleet, churnFleet := quietPlan(o), churnPlan(o)
	var fleetFPS float64
	var fleetBatch int
	var fp *fleetPlan

	switch o.workload {
	case "fleet-quiet", "fleet-churn-durable":
		p := quietFleet
		if o.workload == "fleet-churn-durable" {
			p = churnFleet
		}
		fp = &p
		out.Stamp.Shards = p.shards
		if p.durable {
			out.Stamp.Manifest = "stable.MemMedium x2"
		}
		r, err := runFleet(p, o.seed, tr)
		if err != nil {
			return nil, err
		}
		out.Attempted, out.Failed = r.log.attempted, r.log.failed
		out.FailedByCode, out.FirstFailure, out.Gates = r.log.byCode, r.log.firstErr, r.gates
		fleetFPS, fleetBatch = fleetMetrics(p, r, m), r.batch
	case "campaign-mixed":
		p := mixedPlan(o, nproc)
		out.Stamp.Workers = p.workers
		r, err := runCampaign(p, o.seed, o.traced)
		if err != nil {
			return nil, err
		}
		out.Attempted, out.Failed, out.Gates, out.ReportSHA256 = r.attempted, r.failed, r.gates, r.digest
		campaignMetrics(p, r, m)
	default:
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if !o.traced {
		return out, nil
	}

	sz := probeSizesFor(o, churnFleet.budget)
	steady, churn := probeSpecs(churnFleet, o.seed, int64(sz.warmup+sz.frames))
	pr, err := runProbes(steady, churn, sz, m)
	if err != nil {
		return nil, err
	}
	scale, err := scalingProbe(steady, sz)
	if err != nil {
		return nil, err
	}
	m.set("fleet.scaling_2v1", scale, "ratio", 4)
	fw, err := fileMediumProbe(o.workdir, sz.fileWrites)
	if err != nil {
		return nil, err
	}
	out.Stamp.FileMediumFS = fsType(o.workdir)
	m.set("stable.filemedium.write_us.p50", us(fw.quantile(0.5)), "us", len(fw))
	m.set("stable.filemedium.write_us.p95", us(fw.quantile(0.95)), "us", len(fw))
	if fp != nil {
		deriveFleet(*fp, fleetBatch, fleetFPS, pr, m)
	} else {
		// The engine's workers play the shards' part, and a run executed
		// alone gives the single-worker frame rate.
		fps, single := m["frames_per_s"].Value, m["campaign.single_fps"].Value
		m.set("fleet.fps_per_shard", fps/float64(out.Stamp.Workers), "frames/s", 0)
		m.set("fleet.fps_model_ratio", fpsModelRatio(fps, out.Stamp.Workers, 1e6/single), "ratio", 0)
	}
	return out, nil
}

// Nominal rates size each workload so that its measured phase takes about
// --seconds on the reference host (README.md); the inputs depend only on
// --seed and --seconds, never on a measurement.
const (
	quietNominalFPS = 250_000.0
	churnNominalFPS = 75_000.0
	// campaignNominalRows is matrix rows (one run per arm) per second of
	// the parallel and the one-at-a-time pass together.
	campaignNominalRows = 9.0
)

const fleetTenants = 300

func quietPlan(o options) fleetPlan {
	p := fleetPlan{
		tenants:    fleetTenants,
		budget:     int64(float64(o.seconds) * quietNominalFPS / fleetTenants),
		retain:     256,
		mix:        [numOps]int{opInject: 4, opStatus: 3, opMetrics: 7, opList: 1, opStats: 1},
		setupReps:  21,
		sample:     6,
		shards:     shardsFor(runtime.NumCPU()),
		sliceEvery: 250 * time.Millisecond,
		deadline:   time.Duration(o.seconds)*10*time.Second + time.Minute,
	}
	if o.tiny {
		p.tenants, p.budget, p.setupReps, p.sample = 6, 2000, 2, 3
		p.sliceEvery = 20 * time.Millisecond
	}
	return p
}

func churnPlan(o options) fleetPlan {
	p := quietPlan(o)
	p.durable = true
	p.churnEvery = 20
	p.flipAlt2 = true
	p.mix = [numOps]int{opInject: 6, opJournal: 8, opTraces: 2, opStatus: 1, opList: 1}
	p.budget = int64(float64(o.seconds) * churnNominalFPS / fleetTenants)
	if o.tiny {
		p.budget = 600
	}
	return p
}

func mixedPlan(o options, nproc int) campaignPlan {
	p := campaignPlan{frames: 300, workers: nproc, setupReps: 201, chunk: 50}
	p.seeds = int(float64(o.seconds) * campaignNominalRows)
	if p.seeds < 2 {
		p.seeds = 2
	}
	if o.tiny {
		p.seeds, p.frames, p.setupReps, p.chunk = 2, 60, 2, 4
	}
	return p
}

func probeSizesFor(o options, replayFrames int64) probeSizes {
	if o.tiny {
		return probeSizes{warmup: 50, frames: 200, replayFrames: 200, reps: 2, scaleTenants: 4, scaleWindow: 40 * time.Millisecond, fileWrites: 50}
	}
	return probeSizes{warmup: 500, frames: 4000, replayFrames: replayFrames, reps: 5, scaleTenants: 60, scaleWindow: 600 * time.Millisecond, fileWrites: 2000}
}

// probeSpecs picks one seeded spec per preset and returns it quiet and
// with its churn script extended to cover the probe's frames, with the
// fleet's retention resolved in.
func probeSpecs(churn fleetPlan, seed int64, frames int64) (steady, churned []fleet.SpawnSpec) {
	specs := churn.specs(rand.New(rand.NewSource(seed)))
	seen := map[string]bool{}
	for _, ss := range specs {
		if seen[ss.Preset] {
			continue
		}
		seen[ss.Preset] = true
		ss.RetainFrames = churn.retain
		if frames > ss.Frames {
			ss.Script = churnScript(ss.Script[0].Frame, churn.churnEvery, frames)
		}
		churned = append(churned, ss)
		ss.Script = nil
		steady = append(steady, ss)
	}
	sort.Slice(steady, func(i, j int) bool { return steady[i].Preset < steady[j].Preset })
	sort.Slice(churned, func(i, j int) bool { return churned[i].Preset < churned[j].Preset })
	return steady, churned
}

// fleetMetrics turns a fleet run into metrics and returns the frame rate
// the derived layer metrics use: the median window rate, over the
// tracer-off windows in a traced run.
func fleetMetrics(p fleetPlan, r *fleetRun, m metrics) float64 {
	for k, v := range r.layer {
		m[k] = v
	}
	fps := windowRate(r.windows, false)
	var all, reads timings
	for k, lat := range r.lat {
		all = append(all, lat...)
		if opKind(k) != opInject {
			reads = append(reads, lat...)
		}
	}
	allC, readsC, inj := all.corrected(r.windows), reads.corrected(r.windows), r.lat[opInject].corrected(r.windows)
	setup := correctedTimes(r.setup)
	m.set("setup_s", sec(setup.median()), "s", len(setup))
	m.set("frames_per_s", fps, "frames/s", len(r.windows))
	m.set("op_p50_ms", ms(allC.quantile(0.5)), "ms", len(allC))
	m.set("op_p95_ms", ms(allC.quantile(0.95)), "ms", len(allC))
	m.set("fleet_fps", float64(r.frames)/r.load.Seconds(), "frames/s", 1)
	m.set("inject_p50_ms", ms(inj.quantile(0.5)), "ms", len(inj))
	m.set("inject_p95_ms", ms(inj.quantile(0.95)), "ms", len(inj))
	m.set("read_p50_ms", ms(readsC.quantile(0.5)), "ms", len(readsC))
	m.set("read_p95_ms", ms(readsC.quantile(0.95)), "ms", len(readsC))
	rawAll := all.raw()
	m.set("host.steal_pct", 100*meanSteal(r.windows), "%", len(r.windows))
	m.set("raw.op_p50_ms", ms(rawAll.quantile(0.5)), "ms", len(rawAll))
	m.set("raw.op_p95_ms", ms(rawAll.quantile(0.95)), "ms", len(rawAll))
	m.set("raw.setup_s", sec(durationsOf(r.setup).median()), "s", len(r.setup))
	m.set("raw.frames_per_s", windowRate(rawWindows(r.windows), false), "frames/s", len(r.windows))
	m.set("heap_mb", r.heapMB, "MiB", 1)
	m.set("load_s", sec(r.load), "s", 1)
	m.set("client.inject_fallbacks", float64(r.fallbacks), "count", 0)
	if p.durable {
		m.set("recover_s", sec(r.recover), "s", 1)
	}
	if !r.traced {
		return fps
	}

	// Traced run.
	for _, route := range []string{"spawn", "inject", "status", "metrics", "journal", "traces", "list", "stats"} {
		d := r.routes[route]
		m.set("fleet.api."+route+".p50_ms", ms(d.quantile(0.5)), "ms", len(d))
		m.set("fleet.api."+route+".p95_ms", ms(d.quantile(0.95)), "ms", len(d))
		m.set("fleet.api."+route+".count", float64(len(d)), "count", len(d))
	}
	var handlerReads durations
	for _, route := range []string{"status", "metrics", "journal", "traces", "list", "stats"} {
		handlerReads = append(handlerReads, r.routes[route]...)
	}
	m.set("fleet.api.transport_p50_ms", ms(r.clientOn.quantile(0.5))-ms(handlerReads.quantile(0.5)), "ms", len(handlerReads))
	m.set("trace.overhead_pct", overheadPct(r.windows), "%", len(r.windows)/2)
	io := r.loadIO
	m.set("stable.manifest.writes", float64(io.writes), "count", 0)
	m.set("stable.manifest.reads", float64(io.reads), "count", 0)
	m.set("stable.manifest.keys_calls", float64(io.keys), "count", 0)
	m.set("stable.manifest.deletes", float64(io.deletes), "count", 0)
	m.set("stable.manifest.bytes_written", float64(io.bytes), "bytes", 0)
	busy := 0.0
	if r.onTime > 0 {
		busy = io.busy.Seconds() / r.onTime.Seconds()
	}
	m.set("stable.manifest.busy_share", busy, "ratio", 0)
	bypassed(m, "count", "storage.repairs", "storage.rescues", "storage.corruptions_detected", "storage.halts",
		"membership.joins", "membership.leaves", "membership.evictions", "membership.converges", "membership.rejected")
	if p.durable {
		m.set("stable.manifest.write_us.p50", us(r.writeT.quantile(0.5)), "us", len(r.writeT))
		m.set("stable.manifest.recover_reads", float64(r.recoverIO.reads), "count", 0)
		m.set("stable.manifest.recover_keys_calls", float64(r.recoverIO.keys), "count", 0)
		m.set("fleet.recover.mount_ms", ms(r.mount), "ms", 1)
	}
	return windowRate(r.windows, true)
}

// deriveFleet computes the fleet metrics that combine the workload with
// the probes.
func deriveFleet(p fleetPlan, batch int, fps float64, pr probeResult, m metrics) {
	shards := float64(p.shards)
	m.set("fleet.fps_per_shard", fps/shards, "frames/s", 0)
	m.set("fleet.sweep_ms", sweepMS(p.tenants, batch, p.shards, fps), "ms", 0)
	stepUS := pr.steadyMeanUS
	if p.churnEvery > 0 {
		stepUS = pr.churnMeanUS
	}
	m.set("fleet.fps_model_ratio", fpsModelRatio(fps, p.shards, stepUS), "ratio", 0)
	if p.durable {
		rec := m["recover_s"].Value
		mount := m["fleet.recover.mount_ms"].Value
		m.set("fleet.recover_model_ratio", recoverModelRatio(rec, p.tenants, pr.replayMS, mount), "ratio", 0)
	}
}

// campaignMetrics turns a campaign run into metrics.
func campaignMetrics(p campaignPlan, r *campaignRun, m metrics) {
	for k, v := range r.layer {
		m[k] = v
	}
	var all timings
	for _, d := range r.runT {
		all = append(all, d...)
	}
	allC, setup := all.corrected(r.seq), correctedTimes(r.setup)
	m.set("setup_s", sec(setup.median()), "s", len(setup))
	m.set("frames_per_s", windowRate(r.chunks, false), "frames/s", len(r.chunks))
	m.set("op_p50_ms", ms(allC.quantile(0.5)), "ms", len(allC))
	m.set("op_p95_ms", ms(allC.quantile(0.95)), "ms", len(allC))
	m.set("campaign_runs_per_s", windowRate(r.chunks, false)/float64(p.frames), "runs/s", r.runs)
	m.set("heap_mb", r.heapMB, "MiB", 1)
	m.set("load_s", sec(r.wall+r.seqWall), "s", 1)
	rawAll := all.raw()
	m.set("host.steal_pct", 100*meanSteal(append(append([]slice(nil), r.chunks...), r.seq...)), "%", 1)
	m.set("raw.op_p50_ms", ms(rawAll.quantile(0.5)), "ms", len(rawAll))
	m.set("raw.op_p95_ms", ms(rawAll.quantile(0.95)), "ms", len(rawAll))
	m.set("raw.setup_s", sec(durationsOf(r.setup).median()), "s", len(r.setup))
	m.set("raw.frames_per_s", float64(r.frames)/r.wall.Seconds(), "frames/s", 1)
	if len(r.slices) == 0 {
		return
	}

	// Traced run.
	var busy time.Duration
	for kind, d := range r.runT {
		c := d.corrected(r.seq)
		m.set("campaign.run_ms."+string(kind)+".p50", ms(c.quantile(0.5)), "ms", len(c))
		m.set("campaign.run_ms."+string(kind)+".p95", ms(c.quantile(0.95)), "ms", len(c))
		busy += c.sum()
	}
	m.set("campaign.single_fps", float64(r.frames)/busy.Seconds(), "frames/s", 0)
	m.set("campaign.report_ms", ms(r.reportT.median()), "ms", len(r.reportT))
	m.set("campaign.worker_busy_share", busy.Seconds()/(correctedTimes(r.chunks).sum().Seconds()*float64(p.workers)), "ratio", 0)
	m.set("trace.overhead_pct", overheadPct(r.slices), "%", len(r.slices)/2)
	bypassed(m, "count", "stable.manifest.writes", "stable.manifest.reads", "stable.manifest.keys_calls", "stable.manifest.deletes")
	bypassed(m, "bytes", "stable.manifest.bytes_written")
	bypassed(m, "ratio", "stable.manifest.busy_share")
}

// bypassed records zero for counters, in unit, of layers the workload
// never calls.
func bypassed(m metrics, unit string, names ...string) {
	for _, n := range names {
		m.set(n, 0, unit, 0)
	}
}
