package main

import (
	"math"
	"sort"
	"time"
)

// metric is one measured value. Samples is the number of observations the
// value summarizes (0 for a value computed from other metrics).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metrics is a named set of measured values.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string, samples int) {
	m[name] = metric{Value: value, Unit: unit, Samples: samples}
}

// durations is a sample of wall-clock timings.
type durations []time.Duration

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of the sample.
func (d durations) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func (d durations) median() time.Duration { return d.quantile(0.5) }

func (d durations) sum() time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}

func (d durations) mean() time.Duration {
	if len(d) == 0 {
		return 0
	}
	return d.sum() / time.Duration(len(d))
}

// ms, us and sec convert a duration to a float in the named unit.
func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func sec(d time.Duration) float64 { return d.Seconds() }

// medianFloat returns the median of a float sample (mean of the middle pair
// for an even count).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timeReps runs fn n times and returns each call's wall time.
func timeReps(n int, fn func() error) (durations, error) {
	out := make(durations, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}
