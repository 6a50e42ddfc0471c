// Command benchmark is funcX's lifecycle benchmark. It boots the
// in-process fabric (service, forwarder, one endpoint of 1 manager × 4
// prewarmed workers running the builtin echo), drives one workload
// through the public SDK, checks every output byte for byte against its
// seeded input, and prints its metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// With -trace 0 it prints the end-to-end metrics. With -trace 1 it runs
// the workload twice, untraced and then with the benchmark's own spans
// on, and prints the per-layer metrics: each layer is timed from the
// outside, by spans around SDK calls, a wrapper on the SDK's HTTP
// transport, the service's /v1/stats, /v1/metrics and task-trace
// surfaces, the agent's counters, and microbenchmarks of each layer's
// public functions on workload-shaped records.
//
// Run it from the repository root through benchmark/run.sh, which
// builds it:
//
//	bash benchmark/run.sh --workload submit_open --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run boots the fabric; setup_s is
// the median, and the last boot serves the run.
const setupRepeats = 3

// workDir holds the journals, scratch files and span dumps of a run,
// relative to the directory the benchmark runs from.
const workDir = ".bench_build/run"

func main() {
	name := flag.String("workload", "", "workload: submit_open, submit_open_wal or batch_closed")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "measured seconds per pass")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *traced)
	// A wedged fabric must not hold the run past its budget: a traced
	// run measures two passes of --seconds plus set-up and drains.
	time.AfterFunc(4*time.Duration(*seconds)*time.Second+time.Minute, func() {
		fmt.Fprintln(os.Stderr, "benchmark: run exceeded its time budget")
		os.Exit(1)
	})

	r := &run{w: *w, seed: *seed, dur: time.Duration(*seconds) * time.Second}
	var err error
	if *traced == 1 {
		err = r.traced()
	} else {
		err = r.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	r.rep.print()
	out, err := json.Marshal(r.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if r.wrong > 0 {
		os.Exit(1)
	}
}

// metric is one reported figure. samples is how many observations it
// summarizes (0 for a count or a microbenchmark).
type metric struct {
	name, unit string
	value      float64
	samples    int
	note       string
}

type report struct{ list []metric }

func (r *report) add(name, unit string, v float64, samples int) {
	r.list = append(r.list, metric{name: name, unit: unit, value: v, samples: samples})
}

// none reports a metric the workload cannot produce, as 0 with the
// reason printed beside it.
func (r *report) none(name, unit, why string) {
	r.list = append(r.list, metric{name: name, unit: unit, note: why})
}

func (r *report) print() {
	for _, m := range r.list {
		line := fmt.Sprintf("%-40s %14.6g %-8s", m.name, m.value, m.unit)
		if m.samples > 0 {
			line += fmt.Sprintf(" n=%d", m.samples)
		}
		if m.note != "" {
			line += " (" + m.note + ")"
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// run is one invocation: a workload, its seed, and what it measured.
type run struct {
	w    workload
	seed int64
	dur  time.Duration

	rep                      report
	attempted, failed, wrong int
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *run) result() jsonResult {
	out := jsonResult{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.rep.list {
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return out
}

// tally adds the phases' outcomes to the run's totals and prints them.
func (r *run) tally(pass string, phases ...*phase) {
	for _, p := range phases {
		sent, ok, failed, wrong := p.counts()
		fmt.Printf("%s/%s: sent=%d succeeded=%d failed=%d wrong_output=%d window=%.3fs\n",
			pass, p.name, sent, ok, failed, wrong, p.window().Seconds())
		r.attempted += sent
		r.failed += failed
		r.wrong += wrong
	}
}

// setup boots the fabric and warms it up, returning the generator on it.
func (r *run) setup(i int) (*generator, error) {
	dir := ""
	if r.w.wal {
		var err error
		if dir, err = walDir(workDir, i); err != nil {
			return nil, err
		}
	}
	e, err := boot(dir)
	if err != nil {
		return nil, err
	}
	d := &generator{w: r.w, seed: r.seed, e: e}
	if err := d.warm(context.Background()); err != nil {
		e.close()
		return nil, err
	}
	return d, nil
}

// warm pushes tasks through the workload's own path so connections,
// the event stream and the first journal segment exist before timing.
func (d *generator) warm(ctx context.Context) error {
	var p *phase
	if d.w.batch {
		p = d.batchPhase(ctx, time.Millisecond)
	} else {
		p = d.closedPhase(ctx, 50*time.Millisecond)
	}
	if _, ok, failed, _ := p.counts(); failed > 0 || ok == 0 {
		return fmt.Errorf("warm-up: %d of %d tasks failed", failed, len(p.tasks))
	}
	return nil
}

// split divides a traced pass between the primary phase and the
// closed-loop throughput phase: 60/40 for the open workloads, all of it
// for batch_closed, whose primary phase is its throughput phase.
func (d *generator) split(dur time.Duration) (primary, closed time.Duration) {
	if d.w.batch {
		return dur, 0
	}
	return dur * 6 / 10, dur * 4 / 10
}

// primary runs the phase whose latency and CPU cost the workload
// reports: the open loop, or the batches.
func (d *generator) primary(ctx context.Context, dur time.Duration) *phase {
	if d.w.batch {
		return d.batchPhase(ctx, dur)
	}
	return d.openPhase(ctx, dur)
}

// phases runs one pass of the traced run: the primary phase, then for
// the open workloads the closed loop that measures throughput.
func (d *generator) phases(ctx context.Context, dur time.Duration) (primary, tpsPhase *phase) {
	pd, cd := d.split(dur)
	primary = d.primary(ctx, pd)
	if cd == 0 {
		return primary, primary
	}
	return primary, d.closedPhase(ctx, cd)
}

// endToEnd measures the end-to-end metrics with tracing off.
func (r *run) endToEnd() error {
	ctx := context.Background()
	var setups dist
	var d *generator
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.e.close()
		}
		start := time.Now()
		var err error
		if d, err = r.setup(i); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups.add(time.Since(start).Seconds())
	}
	defer d.e.close()

	primary := d.primary(ctx, r.dur)
	r.tally("run", primary)

	setupMedian, _ := setups.quantile(0.5)
	r.rep.add("setup_s", "s", setupMedian, setups.n())
	cpu, ok := primary.cpuPerTask()
	if !ok {
		return fmt.Errorf("cpu_us_per_task: no verified completions")
	}
	r.rep.add("cpu_us_per_task", "us", cpu, len(primary.tasks))
	return nil
}

// traced runs the workload untraced and then traced on one fabric, and
// reports the per-layer metrics.
func (r *run) traced() error {
	ctx := context.Background()
	d, err := r.setup(0)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			d.e.close()
		}
	}()

	heap := startHeapSampler()
	start := time.Now()
	base, baseTPS := d.phases(ctx, r.dur)
	heap.stop()
	r.tally("untraced", distinct(base, baseTPS)...)
	if peak, ok := overWindows(start, time.Now(), heap.max); ok {
		r.rep.add("e2e.heap_peak_mb", "MB", peak/(1<<20), heap.vals.n())
	} else {
		r.rep.none("e2e.heap_peak_mb", "MB", "too few heap samples")
	}

	d.spans = &spanLog{}
	d.e.tr.spans.Store(d.spans)
	pd, cd := d.split(r.dur)
	l, err := observe(ctx, d, func() *phase { return d.primary(ctx, pd) })
	if err != nil {
		return err
	}
	tpsPhase := l.primary
	if cd > 0 {
		tpsPhase = d.closedPhase(ctx, cd)
	}
	r.tally("traced", distinct(l.primary, tpsPhase)...)
	rest := d.spans.take()
	sh := newShapes(r.w, r.seed, d.e.fn, d.e.ep.ID, l.primary.ids()[0])
	d.e.close()
	closed = true

	if err := l.report(&r.rep, base, baseTPS, tpsPhase); err != nil {
		return err
	}
	if err := micro(&r.rep, sh, workDir); err != nil {
		return err
	}
	sort.Slice(r.rep.list, func(i, j int) bool { return r.rep.list[i].name < r.rep.list[j].name })
	path := filepath.Join(workDir, fmt.Sprintf("spans-%s.jsonl", r.w.name))
	if err := writeSpans(path, append(l.spans, rest...)); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(l.spans)+len(rest), path)
	return nil
}

func distinct(a, b *phase) []*phase {
	if a == b {
		return []*phase{a}
	}
	return []*phase{a, b}
}
