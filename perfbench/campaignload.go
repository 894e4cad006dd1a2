package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/stable"
	"repro/internal/telemetry"
)

// campaignPlan is the campaign-mixed workload: the S1 storage arms and the
// S3 membership arms over one seeded matrix.
type campaignPlan struct {
	seeds, frames int
	workers       int
	setupReps     int
	// chunk is the number of runs per Engine.Execute call of the
	// parallel pass.
	chunk int
}

// seqWindow is the window the one-at-a-time pass's steal share is taken
// over: long enough for /proc/stat's 10 ms ticks to resolve it.
const seqWindow = 250 * time.Millisecond

// campaignFaults are the campaign CLI's default s1 storage fault rates.
var campaignFaults = stable.FaultProfile{TornWriteRate: 0.025, BitRotRate: 0.05, StuckReadRate: 0.025}

func (p campaignPlan) matrix(seed int64) campaign.Matrix {
	arms := append(campaign.S1Matrix(1, p.frames, campaignFaults).Arms, campaign.S3Matrix(1, p.frames, 3).Arms...)
	return campaign.Matrix{
		Name:     "perfbench-campaign-mixed",
		Seeds:    p.seeds,
		BaseSeed: seed,
		Frames:   p.frames,
		Order:    campaign.SeedMajor,
		Arms:     arms,
	}
}

// runOptions builds the core.Options a run executes under.
func runOptions(r campaign.Run) (core.Options, error) {
	switch r.Kind {
	case campaign.KindStorage:
		return inject.StorageCampaign{Seed: r.Seed, Frames: r.Frames, EnvEvents: r.EnvEvents, Replicas: r.Replicas, Faults: r.Faults}.Options(), nil
	case campaign.KindMembership:
		return inject.MembershipCampaign{Seed: r.Seed, Frames: r.Frames, EnvEvents: r.EnvEvents, Churn: r.Churn, Evictions: r.Evictions, CorruptRecords: r.CorruptRecords}.Options(), nil
	}
	return core.Options{}, fmt.Errorf("no options for run kind %q", r.Kind)
}

// campaignRun is everything one campaign workload run measured.
type campaignRun struct {
	// setup holds one slice per set-up; chunks one per Execute call of
	// the parallel pass, its work the frames executed.
	setup, chunks []slice
	// wall is the parallel pass's Engine.Execute time.
	wall   time.Duration
	runs   int
	frames int64
	heapMB float64
	digest string
	// runT holds each run's time executed alone, by kind, and seq the
	// one-at-a-time pass's windows.
	runT      map[campaign.Kind]timings
	seq       []slice
	seqWall   time.Duration
	attempted int
	failed    int
	// traced-run extras
	reportT durations
	// slices are the sequential pass's seed rows, alternately
	// instrumented with a progress callback.
	slices []slice
	layer  metrics
	gates  []string
}

func (r *campaignRun) fail(format string, args ...any) {
	r.gates = append(r.gates, fmt.Sprintf(format, args...))
}

// runCampaign executes the matrix twice: once with Workers = nproc, in
// Engine.Execute calls of p.chunk runs each, for throughput, and once a run
// at a time, for each run's latency. Every run must be clean and the two
// reports byte-identical: the engine's determinism-across-worker-counts
// contract.
func runCampaign(p campaignPlan, seed int64, traced bool) (*campaignRun, error) {
	m := p.matrix(seed)
	res := &campaignRun{layer: metrics{}, runT: map[campaign.Kind]timings{}}
	var runs []campaign.Run
	for i := 0; i < p.setupReps; i++ {
		t0, cpu0 := time.Now(), readCPU()
		if err := m.Validate(); err != nil {
			return nil, err
		}
		runs = m.Expand()
		for _, r := range runs[:len(m.Arms)] {
			opts, err := runOptions(r)
			if err != nil {
				return nil, err
			}
			sys, err := core.NewSystem(opts)
			if err != nil {
				return nil, fmt.Errorf("constructing %s: %w", r.Arm, err)
			}
			sys.Close()
		}
		res.setup = append(res.setup, slice{work: 1, d: time.Since(t0), steal: stealShare(cpu0, readCPU())})
	}

	par := make([]campaign.Result, 0, len(runs))
	eng := campaign.Engine{Workers: p.workers}
	for c := 0; c < len(runs); c += p.chunk {
		chunk := runs[c:min(c+p.chunk, len(runs))]
		t0, cpu0 := time.Now(), readCPU()
		out := eng.Execute(chunk)
		d := time.Since(t0)
		var frames int64
		for _, r := range out {
			frames += int64(r.Run.Frames)
		}
		res.chunks = append(res.chunks, slice{work: float64(frames), d: d, steal: stealShare(cpu0, readCPU())})
		res.wall += d
		res.frames += frames
		par = append(par, out...)
	}
	res.runs = len(runs)
	digest, err := res.checkReport(m, par, "")
	if err != nil {
		return nil, err
	}
	res.digest = digest
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.heapMB = float64(mem.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(par)

	seq := make([]campaign.Result, 0, len(runs))
	arms := len(m.Arms)
	t1 := time.Now()
	clock := newWindowClock(seqWindow)
	inWindow := 0
	for row := 0; row*arms < len(runs); row++ {
		one := campaign.Engine{Workers: 1}
		instrumented, done := traced && row%2 == 0, 0
		if instrumented {
			one.Progress = func(int, int, campaign.Result) { done++ }
		}
		var rowT time.Duration
		rowCPU := readCPU()
		for _, r := range runs[row*arms : (row+1)*arms] {
			t := time.Now()
			out := one.Execute([]campaign.Run{r})
			d := time.Since(t)
			res.runT[r.Kind] = append(res.runT[r.Kind], timed{d: d, win: clock.index()})
			rowT += d
			seq = append(seq, out...)
			if inWindow++; clock.tick(float64(inWindow), false) {
				inWindow = 0
			}
		}
		if traced {
			res.slices = append(res.slices, slice{on: instrumented, work: float64(arms), d: rowT, steal: stealShare(rowCPU, readCPU())})
		}
		if instrumented && done != arms {
			res.fail("progress reported %d of %d runs", done, arms)
		}
	}
	clock.tick(float64(inWindow), true)
	res.seq = clock.windows
	res.seqWall = time.Since(t1)
	if _, err := res.checkReport(m, seq, digest); err != nil {
		return nil, err
	}
	if traced {
		res.reportT, _ = timeReps(5, func() error {
			campaign.BuildReport(m, seq)
			return nil
		})
		campaignLayers(seq, res.layer)
	}
	return res, nil
}

// checkReport gates one pass: every run clean, and the report's sha256
// equal to want unless want is empty. It returns the digest.
func (r *campaignRun) checkReport(m campaign.Matrix, results []campaign.Result, want string) (string, error) {
	for _, x := range results {
		r.attempted++
		bad := ""
		switch {
		case x.Err != "":
			bad = "error: " + x.Err
		case x.Violations > 0:
			bad = fmt.Sprintf("%d SP violations", x.Violations)
		case x.SilentWrongData > 0:
			bad = fmt.Sprintf("%d silent wrong data", x.SilentWrongData)
		case x.MembershipViolations > 0:
			bad = fmt.Sprintf("%d membership violations", x.MembershipViolations)
		}
		if bad != "" {
			r.failed++
			r.fail("run %d (%s seed %d): %s", x.Run.ID, x.Run.Arm, x.Run.Seed, bad)
		}
	}
	js, err := campaign.BuildReport(m, results).JSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(js)
	digest := hex.EncodeToString(sum[:])
	if want != "" && digest != want {
		r.fail("report sha256 %s differs from %s", digest, want)
	}
	return digest, nil
}

// campaignLayers sums the storage, membership and SCRAM counters and the
// journal sizes over a pass's results.
func campaignLayers(results []campaign.Result, m metrics) {
	var repairs, rescues, corruptions, halts int64
	var joins, leaves, evictions, converges, rejected int64
	var triggers, completes, retargets, chained, events, bytes int64
	var window telemetry.HistogramSnapshot
	var storageRuns, memberRuns int
	for _, x := range results {
		if s := x.Storage; s != nil {
			storageRuns++
			repairs += s.Storage.ReadRepairs + s.Storage.ScrubRepairs
			rescues += s.Storage.CommitRescues
			corruptions += s.Storage.CorruptionsDetected
			halts += int64(s.StorageHalts)
		}
		if mm := x.Membership; mm != nil {
			memberRuns++
			joins += int64(mm.Membership.Joins)
			leaves += int64(mm.Membership.Leaves)
			evictions += int64(mm.Membership.Evictions)
			converges += int64(mm.Membership.Converges)
			rejected += int64(mm.Membership.Rejected)
		}
		c := x.Metrics.Counters
		triggers += c["scram/triggers"]
		completes += c["scram/completes"]
		retargets += c["scram/retargets"]
		chained += c["scram/chained"]
		mergeHist(&window, x.WindowFrames)
		events += int64(len(x.Ring))
		var cw countWriter
		if err := telemetry.WriteJournal(&cw, x.Ring); err == nil {
			bytes += cw.n
		}
	}
	n := len(results)
	m.set("storage.repairs", float64(repairs), "count", storageRuns)
	m.set("storage.rescues", float64(rescues), "count", storageRuns)
	m.set("storage.corruptions_detected", float64(corruptions), "count", storageRuns)
	m.set("storage.halts", float64(halts), "count", storageRuns)
	m.set("membership.joins", float64(joins), "count", memberRuns)
	m.set("membership.leaves", float64(leaves), "count", memberRuns)
	m.set("membership.evictions", float64(evictions), "count", memberRuns)
	m.set("membership.converges", float64(converges), "count", memberRuns)
	m.set("membership.rejected", float64(rejected), "count", memberRuns)
	m.set("scram.triggers", float64(triggers), "count", n)
	m.set("scram.completes", float64(completes), "count", n)
	m.set("scram.retargets", float64(retargets), "count", n)
	m.set("scram.chained", float64(chained), "count", n)
	m.set("scram.window_frames.p50", histQuantile(window, 0.5), "frames", int(window.Count))
	m.set("telemetry.journal_events", float64(events)/float64(n), "count", n)
	m.set("telemetry.journal_bytes", float64(bytes)/float64(n), "bytes", n)
}
