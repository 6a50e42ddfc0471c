package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"funcx/internal/promtext"
)

// minBeyond is the reporting rule for percentiles: a percentile is
// reported only when at least this many samples lie beyond it, so a
// tail figure is never one or two stragglers.
const minBeyond = 10

// dist is a set of samples of one quantity (milliseconds, µs, ...).
type dist struct {
	v      []float64
	sorted bool
}

func (d *dist) add(x float64)            { d.v = append(d.v, x); d.sorted = false }
func (d *dist) addDur(x time.Duration)   { d.add(float64(x) / float64(time.Millisecond)) }
func (d *dist) addDurUS(x time.Duration) { d.add(float64(x) / float64(time.Microsecond)) }
func (d *dist) n() int                   { return len(d.v) }

// quantile returns the q-quantile by nearest rank. ok is false when
// fewer than minBeyond samples lie beyond it (the value is still
// returned, for diagnostics).
func (d *dist) quantile(q float64) (float64, bool) {
	if len(d.v) == 0 {
		return 0, false
	}
	if !d.sorted {
		sort.Float64s(d.v)
		d.sorted = true
	}
	// Nearest rank: the sample at 1-based rank ceil(q·n); the samples
	// beyond it are those ranked after it.
	n := len(d.v)
	rank := min(max(int(math.Ceil(q*float64(n))), 1), n)
	return d.v[rank-1], n-rank >= minBeyond
}

func (d *dist) mean() float64 {
	if len(d.v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range d.v {
		s += x
	}
	return s / float64(len(d.v))
}

// hist is the sum and count of one Prometheus histogram series. Its
// buckets are not kept: their finest bound (0.5 ms) is coarser than
// most stages, so percentiles come from retained timelines instead.
type hist struct {
	sum   float64
	count float64
}

// sub returns the observations made between prev and h (same series,
// scraped earlier).
func (h hist) sub(prev hist) hist {
	return hist{sum: h.sum - prev.sum, count: h.count - prev.count}
}

func (h hist) mean() float64 {
	if h.count <= 0 {
		return 0
	}
	return h.sum / h.count
}

// stageHists extracts the funcx_task_stage_seconds series, one per
// stage label, from a /v1/metrics exposition. A fabric with one
// endpoint and no groups has exactly one series per stage.
func stageHists(text string) (map[string]hist, error) {
	fams, err := promtext.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("parsing /v1/metrics: %w", err)
	}
	out := make(map[string]hist)
	f := promtext.Get(fams, "funcx_task_stage_seconds")
	if f == nil {
		return out, nil
	}
	for _, s := range f.Samples {
		stage := s.Labels["stage"]
		h := out[stage]
		switch s.Name {
		case "funcx_task_stage_seconds_sum":
			h.sum = s.Value
		case "funcx_task_stage_seconds_count":
			h.count = s.Value
		}
		out[stage] = h
	}
	return out, nil
}
