package main

import "time"

// The models below are ROADMAP item 1's check that the end-to-end numbers
// are explained by the layer numbers: each ratio is a measured end-to-end
// value over the value the layer probes predict, so 1 means fully
// explained and the gap is the unexplained overhead.

// sweepMS is the time one shard needs to step every running tenant one
// batch at the measured rate: tenants × batch ÷ (fps ÷ shards). An
// injection waits for the next sweep to reach its tenant, so this predicts
// the ack wait.
func sweepMS(tenants, batch, shards int, fps float64) float64 {
	return float64(tenants*batch) / (fps / float64(shards)) * 1000
}

// fpsModelRatio is fps ÷ (units × 10⁶ ÷ stepUS): the measured aggregate
// frame rate over what `units` parallel workers would reach stepping
// frames of stepUS microseconds back to back.
func fpsModelRatio(fps float64, units int, stepUS float64) float64 {
	return fps / (float64(units) * 1e6 / stepUS)
}

// recoverModelRatio is recoverS ÷ (tenants × replayMS + mountMS): the
// measured recovery time over one standalone replay per tenant plus the
// manifest mount.
func recoverModelRatio(recoverS float64, tenants int, replayMS, mountMS float64) float64 {
	return recoverS / ((float64(tenants)*replayMS + mountMS) / 1000)
}

// slice is one interval of a load, with the tracer on or off.
type slice struct {
	on   bool
	work float64 // frames or runs completed in the interval
	d    time.Duration
	// steal is the share of the machine's CPU time the hypervisor took
	// during the interval.
	steal float64
}

// rate is the slice's work per second of CPU time the host left to this
// machine: work ÷ (d × (1 − steal)). On a shared host the hypervisor takes
// a varying share of the virtual CPUs; without this correction a rate
// measures the neighbours as much as the program.
func (s slice) rate() float64 {
	avail := s.d.Seconds() * (1 - s.steal)
	if avail <= 0 {
		return 0
	}
	return s.work / avail
}

// overheadPct is the tracing overhead on throughput, in percent: the
// median, over adjacent off/on slice pairs, of (off − on) ÷ off. Pairing
// adjacent slices cancels the drift of a load whose rate changes over time
// (a fleet whose tenants complete one by one).
func overheadPct(slices []slice) float64 {
	var pcts []float64
	for i := 0; i+1 < len(slices); i += 2 {
		a, b := slices[i], slices[i+1]
		if a.on == b.on || a.d <= 0 || b.d <= 0 {
			continue
		}
		if a.on {
			a, b = b, a
		}
		off, on := a.rate(), b.rate()
		if off > 0 {
			pcts = append(pcts, 100*(off-on)/off)
		}
	}
	return medianFloat(pcts)
}

// windowRate is the median over windows of their steal-corrected rates,
// counting only windows with the tracer off when off is set. A median over
// short windows keeps a transient stall out of the rate.
func windowRate(windows []slice, off bool) float64 {
	var rates []float64
	for _, w := range windows {
		if w.d > 0 && !(off && w.on) {
			rates = append(rates, w.rate())
		}
	}
	return medianFloat(rates)
}

// timed is one latency sample and the index of the load window it fell in.
type timed struct {
	d   time.Duration
	win int
}

type timings []timed

func (t timings) raw() durations {
	out := make(durations, len(t))
	for i, x := range t {
		out[i] = x.d
	}
	return out
}

// corrected scales every sample by the CPU share the host left during its
// window, 1 − steal: the same correction as slice.rate, for latencies.
func (t timings) corrected(windows []slice) durations {
	out := make(durations, len(t))
	for i, x := range t {
		out[i] = x.d
		if x.win < len(windows) {
			out[i] = time.Duration(float64(x.d) * (1 - windows[x.win].steal))
		}
	}
	return out
}

// windowClock cuts a run into windows of at least `every`, each closed
// with the host's steal share over it.
type windowClock struct {
	every   time.Duration
	start   time.Time
	cpu     cpuSample
	windows []slice
}

func newWindowClock(every time.Duration) *windowClock {
	return &windowClock{every: every, start: time.Now(), cpu: readCPU()}
}

// index is the window a sample taken now belongs to.
func (c *windowClock) index() int { return len(c.windows) }

// tick closes the current window once it is long enough (or when force is
// set), crediting it with work, and reports whether it did.
func (c *windowClock) tick(work float64, force bool) bool {
	now := time.Now()
	if !force && now.Sub(c.start) < c.every {
		return false
	}
	cpu := readCPU()
	c.windows = append(c.windows, slice{work: work, d: now.Sub(c.start), steal: stealShare(c.cpu, cpu)})
	c.start, c.cpu = now, cpu
	return true
}

// correctedTimes returns each slice's duration scaled by 1 − its steal.
func correctedTimes(slices []slice) durations {
	out := make(durations, len(slices))
	for i, s := range slices {
		out[i] = time.Duration(float64(s.d) * (1 - s.steal))
	}
	return out
}

// durationsOf returns the slices' uncorrected durations.
func durationsOf(slices []slice) durations {
	out := make(durations, len(slices))
	for i, s := range slices {
		out[i] = s.d
	}
	return out
}

// rawWindows returns the windows with their steal shares dropped, for the
// uncorrected figures the report line carries alongside.
func rawWindows(windows []slice) []slice {
	out := append([]slice(nil), windows...)
	for i := range out {
		out[i].steal = 0
	}
	return out
}

// meanSteal is the time-weighted steal share over slices.
func meanSteal(slices []slice) float64 {
	var stolen, total float64
	for _, s := range slices {
		stolen += s.d.Seconds() * s.steal
		total += s.d.Seconds()
	}
	if total == 0 {
		return 0
	}
	return stolen / total
}
