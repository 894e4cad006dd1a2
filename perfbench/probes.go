package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/envmon"
	"repro/internal/fleet"
	"repro/internal/frame"
	"repro/internal/scram"
	"repro/internal/spectest"
	"repro/internal/stable"
	"repro/internal/statics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// probeSizes sizes the traced run's layer probes.
type probeSizes struct {
	warmup, frames int
	// replayFrames is the frame budget of one replayed churn recipe.
	replayFrames int64
	reps         int
	// scaleTenants and scaleWindow size the shard-scaling probe.
	scaleTenants int
	scaleWindow  time.Duration
	// fileWrites is the FileMedium probe's write count.
	fileWrites int
}

// probeResult carries the probe numbers other metrics are derived from.
type probeResult struct {
	steadyMeanUS, churnMeanUS float64
	replayMS                  float64
}

// runProbes measures each layer directly through its public entry point,
// on standalone systems built with fleet.SpawnOptions from one spawn spec
// per preset of the workload. steady holds those specs without a script,
// churn the same specs with the churn script.
func runProbes(steady, churn []fleet.SpawnSpec, sz probeSizes, m metrics) (probeResult, error) {
	var res probeResult
	var steadyT, churnT, reconfT, telOffT, traceOffT, goroutineT durations
	var steadyAllocs, churnAllocs, steadyBytes, churnBytes, allocFrames float64
	var replays durations
	var ringT, assembleT, checkT durations
	// windowViolations counts what CheckAll reports on the retained
	// window; fullTraceCheck gates the same run's whole trace.
	var windowViolations int
	for i := range steady {
		preset := steady[i].Preset
		opts, err := fleet.SpawnOptions(steady[i])
		if err != nil {
			return res, err
		}
		build, err := timeReps(sz.reps, func() error {
			sys, err := core.NewSystem(opts)
			if err != nil {
				return err
			}
			sys.Close()
			return nil
		})
		if err != nil {
			return res, err
		}
		m.set("core.newsystem_ms."+preset, ms(build.median()), "ms", len(build))

		p, err := spectest.Lookup(preset)
		if err != nil {
			return res, err
		}
		rs := p.New()
		check, err := timeReps(sz.reps*4, func() error {
			_, err := statics.Check(rs)
			return err
		})
		if err != nil {
			return res, err
		}
		m.set("statics.check_us."+preset, us(check.median()), "us", len(check))

		a, b, err := allocsPerFrame(opts, sz)
		if err != nil {
			return res, err
		}
		steadyAllocs, steadyBytes = steadyAllocs+a, steadyBytes+b
		t, _, err := stepTimes(opts, sz, nil)
		if err != nil {
			return res, err
		}
		steadyT = append(steadyT, t...)

		copts, err := fleet.SpawnOptions(churn[i])
		if err != nil {
			return res, err
		}
		a, b, err = allocsPerFrame(copts, sz)
		if err != nil {
			return res, err
		}
		churnAllocs, churnBytes = churnAllocs+a, churnBytes+b
		allocFrames += float64(sz.frames)
		var sys *core.System
		t, r, err := stepTimes(copts, sz, func(s *core.System) { sys = s })
		if err != nil {
			return res, err
		}
		churnT, reconfT = append(churnT, t...), append(reconfT, r...)

		// The churned system's black box, spans and trace feed the
		// telemetry and trace probes.
		snap, err := sys.Pool().PollStable(sys.SCRAMProc())
		if err != nil {
			sys.Close()
			return res, err
		}
		var ring []telemetry.Event
		rt, err := timeReps(sz.reps, func() error {
			var err error
			ring, err = telemetry.RecoverRing(snap)
			return err
		})
		if err != nil {
			sys.Close()
			return res, err
		}
		ringT = append(ringT, rt...)
		at, _ := timeReps(sz.reps, func() error {
			telemetry.AssembleTraces(ring)
			return nil
		})
		assembleT = append(assembleT, at...)
		var violations []trace.Violation
		ct, _ := timeReps(sz.reps, func() error {
			violations = trace.CheckAll(sys.Trace(), copts.Spec)
			return nil
		})
		checkT = append(checkT, ct...)
		windowViolations += len(violations)
		sys.Close()
		if err := fullTraceCheck(churn[i], sz); err != nil {
			return res, err
		}

		for _, abl := range []struct {
			dst *durations
			mod func(*core.Options)
		}{
			{&telOffT, func(o *core.Options) { o.TelemetryCapacity = -1 }},
			{&traceOffT, func(o *core.Options) { o.DisableTracing = true }},
			{&goroutineT, func(o *core.Options) { o.Sequential = false }},
		} {
			o, err := fleet.SpawnOptions(churn[i])
			if err != nil {
				return res, err
			}
			abl.mod(&o)
			t, _, err := stepTimes(o, sz, nil)
			if err != nil {
				return res, err
			}
			*abl.dst = append(*abl.dst, t...)
		}

		rec := churn[i]
		rec.Frames = sz.replayFrames
		rp, err := timeReps(1, func() error {
			sys, err := replay(rec, nil)
			if err != nil {
				return err
			}
			sys.Close()
			return nil
		})
		if err != nil {
			return res, err
		}
		replays = append(replays, rp...)
	}
	n := float64(len(steady))
	m.set("core.step_us.steady", us(steadyT.median()), "us", len(steadyT))
	// A churn frame's cost sits in its few reconfiguring frames, so the
	// churn arms report the mean: the median of a churn run is a quiet frame.
	m.set("core.step_us.churn", us(churnT.mean()), "us", len(churnT))
	m.set("core.step_us.reconfig", us(reconfT.median()), "us", len(reconfT))
	m.set("core.step_us.churn.telemetry_off", us(telOffT.mean()), "us", len(telOffT))
	m.set("core.step_us.churn.tracing_off", us(traceOffT.mean()), "us", len(traceOffT))
	m.set("core.step_us.churn.goroutine", us(goroutineT.mean()), "us", len(goroutineT))
	m.set("core.allocs_per_frame.steady", steadyAllocs/n, "count", int(allocFrames))
	m.set("core.allocs_per_frame.churn", churnAllocs/n, "count", int(allocFrames))
	m.set("core.bytes_per_frame.steady", steadyBytes/n, "bytes", int(allocFrames))
	m.set("core.bytes_per_frame.churn", churnBytes/n, "bytes", int(allocFrames))
	m.set("core.replay_ms", ms(replays.mean()), "ms", len(replays))
	m.set("telemetry.recover_ring_ms", ms(ringT.median()), "ms", len(ringT))
	m.set("telemetry.assemble_ms", ms(assembleT.median()), "ms", len(assembleT))
	m.set("trace.check_ms", ms(checkT.median()), "ms", len(checkT))
	m.set("trace.window_violations", float64(windowViolations), "count", len(steady))
	res.steadyMeanUS, res.churnMeanUS = us(steadyT.mean()), us(churnT.mean())
	res.replayMS = ms(replays.mean())

	win, err := scramWindow(sz.reps * 4)
	if err != nil {
		return res, err
	}
	m.set("scram.window_us", us(win.median()), "us", len(win))
	return res, nil
}

// fullTraceCheck steps a churn spec through the probe's frames with
// unbounded retention, so no frame of the trace is trimmed, and requires
// SP1-SP4 and the membership invariants to hold over all of it.
func fullTraceCheck(ss fleet.SpawnSpec, sz probeSizes) error {
	ss.RetainFrames = -1
	opts, err := fleet.SpawnOptions(ss)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(opts)
	if err != nil {
		return err
	}
	defer sys.Close()
	if err := sys.Run(sz.warmup + sz.frames); err != nil {
		return err
	}
	if v := sys.CheckProperties(); len(v) > 0 {
		return fmt.Errorf("probe %s: %d SP violations, first: %v", ss.Preset, len(v), v[0])
	}
	if v := sys.CheckMembership(); len(v) > 0 {
		return fmt.Errorf("probe %s: %d membership violations, first: %v", ss.Preset, len(v), v[0])
	}
	return nil
}

// stepTimes times sz.frames single frames after sz.warmup, and returns the
// frames the SCRAM kernel spent reconfiguring (planning before or after the
// step) separately as well. keep, when set, receives the stepped system
// instead of it being closed.
func stepTimes(opts core.Options, sz probeSizes, keep func(*core.System)) (all, reconf durations, err error) {
	sys, err := core.NewSystem(opts)
	if err != nil {
		return nil, nil, err
	}
	if keep != nil {
		keep(sys)
	} else {
		defer sys.Close()
	}
	if err := sys.Run(sz.warmup); err != nil {
		return nil, nil, err
	}
	all = make(durations, 0, sz.frames)
	for i := 0; i < sz.frames; i++ {
		before := sys.Kernel().Reconfiguring()
		t0 := time.Now()
		if err := sys.Step(); err != nil {
			return nil, nil, err
		}
		d := time.Since(t0)
		all = append(all, d)
		if before || sys.Kernel().Reconfiguring() {
			reconf = append(reconf, d)
		}
	}
	return all, reconf, nil
}

// allocsPerFrame counts heap allocations and bytes per frame over
// sz.frames frames after sz.warmup, untimed.
func allocsPerFrame(opts core.Options, sz probeSizes) (allocs, bytes float64, err error) {
	sys, err := core.NewSystem(opts)
	if err != nil {
		return 0, 0, err
	}
	defer sys.Close()
	if err := sys.Run(sz.warmup); err != nil {
		return 0, 0, err
	}
	// With the collector off, nothing a GC cycle drains or refills
	// (pools, map growth timing) lands in the window, so the count repeats.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := sys.Run(sz.frames); err != nil {
		return 0, 0, err
	}
	runtime.ReadMemStats(&after)
	f := float64(sz.frames)
	return float64(after.Mallocs-before.Mallocs) / f, float64(after.TotalAlloc-before.TotalAlloc) / f, nil
}

// scramWindow times the paper's Table 1 exchange on the threeconfig spec,
// straight through the kernel: the alternator-loss signal, then
// EndOfFrame and the stable commit of every frame until the
// reconfiguration completes.
func scramWindow(reps int) (durations, error) {
	rs := spectest.ThreeConfig()
	out := make(durations, 0, reps)
	for r := 0; r < reps; r++ {
		st := stable.NewStore()
		k, err := scram.NewKernel(rs, st)
		if err != nil {
			return nil, err
		}
		f := int64(0)
		for ; f < 3; f++ {
			if err := k.EndOfFrame(frame.Context{Frame: f}); err != nil {
				return nil, err
			}
			st.Commit()
		}
		t0 := time.Now()
		k.Signal(envmon.Signal{Source: spectest.AppMonitor, State: spectest.EnvReduced, Frame: f})
		for started := false; ; f++ {
			if err := k.EndOfFrame(frame.Context{Frame: f}); err != nil {
				return nil, err
			}
			st.Commit()
			if k.Reconfiguring() {
				started = true
			} else if started {
				break
			}
			if f > 100 {
				return nil, fmt.Errorf("scram probe: no completed reconfiguration by frame %d", f)
			}
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}

// scalingProbe measures the host's frames/s with 1 and with 2 shards and no
// client, interleaved, and returns the ratio of the medians.
func scalingProbe(specs []fleet.SpawnSpec, sz probeSizes) (float64, error) {
	var fps [2][]float64
	for rep := 0; rep < 4; rep++ {
		shards := 1 + rep%2
		h := fleet.NewHost(fleet.Config{Shards: shards, RetainFrames: 256})
		for i := 0; i < sz.scaleTenants && i < len(specs); i++ {
			ss := specs[i]
			ss.Frames, ss.Script = 0, nil
			if _, err := h.Spawn(ss); err != nil {
				h.Close()
				return 0, err
			}
		}
		time.Sleep(sz.scaleWindow / 4)
		f0, t0 := h.FramesStepped(), time.Now()
		time.Sleep(sz.scaleWindow)
		f1, t1 := h.FramesStepped(), time.Now()
		h.Close()
		fps[shards-1] = append(fps[shards-1], float64(f1-f0)/t1.Sub(t0).Seconds())
	}
	return medianFloat(fps[1]) / medianFloat(fps[0]), nil
}

// fileMediumProbe times n FileMedium writes of a checkpoint-sized record,
// cycling over 64 keys, into a fresh directory under dir, and removes it.
func fileMediumProbe(dir string, n int) (durations, error) {
	d, err := os.MkdirTemp(dir, "filemedium-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(d)
	m, err := stable.NewFileMedium(d)
	if err != nil {
		return nil, err
	}
	rec := make([]byte, 96)
	out := make(durations, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("manifest/t/t%04d/ckpt", i%64)
		t0 := time.Now()
		if err := m.Write(key, rec); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}
