// Benchmarks regenerating every table and figure of the paper's §5
// evaluation (one benchmark per artifact, backed by the drivers in
// internal/experiments), plus ablation benches for the main design
// choices and micro-benchmarks of the hot substrates.
//
// The experiment benches run in Quick mode so `go test -bench=.`
// finishes in minutes; `cmd/funcx-bench` runs the same drivers at full
// scale with full output.
package funcx

import (
	"context"
	"io"
	"testing"
	"time"

	"funcx/internal/core"
	"funcx/internal/endpoint"
	"funcx/internal/experiments"
	"funcx/internal/fx"
	"funcx/internal/memo"
	"funcx/internal/perf"
	"funcx/internal/scale"
	"funcx/internal/sdk"
	"funcx/internal/serial"
	"funcx/internal/service"
	"funcx/internal/store"
	"funcx/internal/types"
)

// runExperiment executes one §5 driver per iteration.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(name, experiments.Options{Quick: true, Seed: 42, Out: io.Discard}); err != nil {
			b.Fatalf("experiment %s: %v", name, err)
		}
	}
}

// --- one benchmark per paper table/figure ---

// BenchmarkFigure1CaseStudyLatencies regenerates Figure 1.
func BenchmarkFigure1CaseStudyLatencies(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkTable1FaaSLatency regenerates Table 1.
func BenchmarkTable1FaaSLatency(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFigure4LatencyBreakdown regenerates Figure 4.
func BenchmarkFigure4LatencyBreakdown(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFigure5StrongScaling regenerates Figure 5(a).
func BenchmarkFigure5StrongScaling(b *testing.B) { runExperiment(b, "fig5strong") }

// BenchmarkFigure5WeakScaling regenerates Figure 5(b).
func BenchmarkFigure5WeakScaling(b *testing.B) { runExperiment(b, "fig5weak") }

// BenchmarkAgentThroughput regenerates §5.2.3.
func BenchmarkAgentThroughput(b *testing.B) { runExperiment(b, "throughput") }

// BenchmarkFigure6Elasticity regenerates Figure 6.
func BenchmarkFigure6Elasticity(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFigure7ManagerFailure regenerates Figure 7.
func BenchmarkFigure7ManagerFailure(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFigure8EndpointFailure regenerates Figure 8.
func BenchmarkFigure8EndpointFailure(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkTable2ContainerCold regenerates Table 2.
func BenchmarkTable2ContainerCold(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkExecutorBatching regenerates §5.5.2.
func BenchmarkExecutorBatching(b *testing.B) { runExperiment(b, "batchexec") }

// BenchmarkFigure9MapStrongScaling regenerates Figure 9.
func BenchmarkFigure9MapStrongScaling(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFigure10BatchCaseStudies regenerates Figure 10.
func BenchmarkFigure10BatchCaseStudies(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFigure11Prefetching regenerates Figure 11.
func BenchmarkFigure11Prefetching(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkTable3Memoization regenerates Table 3.
func BenchmarkTable3Memoization(b *testing.B) { runExperiment(b, "table3") }

// --- ablations ---

// benchFabricEcho measures end-to-end task round trips through a
// fabric with the given options applied.
func benchFabricEcho(b *testing.B, mutate func(*core.EndpointOptions)) {
	b.Helper()
	fab, err := core.NewFabric(core.FabricConfig{Service: service.Config{
		HeartbeatPeriod: 100 * time.Millisecond,
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer fab.Close()
	opts := core.EndpointOptions{
		Name: "bench", Owner: "bench",
		Managers: 2, WorkersPerManager: 4, PrewarmWorkers: 4,
		BatchDispatch:   true,
		HeartbeatPeriod: 100 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&opts)
	}
	ep, err := fab.AddEndpoint(opts)
	if err != nil {
		b.Fatal(err)
	}
	client := fab.Client("bench")
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "echo", fx.BodyEcho, types.ContainerSpec{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	payload, err := serial.Serialize("ping")
	if err != nil {
		b.Fatal(err)
	}
	// Warm the path.
	for i := 0; i < 4; i++ {
		id, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID, Payload: payload})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := client.GetResult(ctx, id); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID, Payload: payload})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := client.GetResult(ctx, id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSchedulingRandom measures the paper's randomized
// manager scheduling policy.
func BenchmarkAblationSchedulingRandom(b *testing.B) {
	benchFabricEcho(b, func(o *core.EndpointOptions) { o.Policy = endpoint.ScheduleRandom })
}

// BenchmarkAblationSchedulingRoundRobin measures round-robin
// scheduling.
func BenchmarkAblationSchedulingRoundRobin(b *testing.B) {
	benchFabricEcho(b, func(o *core.EndpointOptions) { o.Policy = endpoint.ScheduleRoundRobin })
}

// BenchmarkAblationSchedulingFirstFit measures first-fit scheduling.
func BenchmarkAblationSchedulingFirstFit(b *testing.B) {
	benchFabricEcho(b, func(o *core.EndpointOptions) { o.Policy = endpoint.ScheduleFirstFit })
}

// BenchmarkAblationNoBatchDispatch disables executor-side batching on
// the real fabric (the §5.5.2 contrast at micro scale).
func BenchmarkAblationNoBatchDispatch(b *testing.B) {
	benchFabricEcho(b, func(o *core.EndpointOptions) { o.BatchDispatch = false })
}

// BenchmarkAblationPrefetch enables manager prefetching on the real
// fabric.
func BenchmarkAblationPrefetch(b *testing.B) {
	benchFabricEcho(b, func(o *core.EndpointOptions) { o.Prefetch = 8 })
}

// BenchmarkAblationPrefetchModel sweeps prefetch in the calibrated
// model: prefetch 0 vs 64 on 4 Theta nodes (Figure 11's endpoints).
func BenchmarkAblationPrefetchModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		none := scale.Run(scale.RunConfig{Model: scale.Theta, Containers: 256, Tasks: 5000,
			TaskDur: 10 * time.Millisecond, Batching: true, Prefetch: 0})
		full := scale.Run(scale.RunConfig{Model: scale.Theta, Containers: 256, Tasks: 5000,
			TaskDur: 10 * time.Millisecond, Batching: true, Prefetch: 64})
		b.ReportMetric(none.Completion.Seconds()/full.Completion.Seconds(), "speedup")
	}
}

// --- control-plane hot paths (cmd/funcx-perf runs the same bodies
// standalone and emits BENCH_6.json) ---

// BenchmarkSubmitHotPath measures one authenticated submit per
// iteration with the pure in-memory store.
func BenchmarkSubmitHotPath(b *testing.B) { perf.BenchSubmit(b, false) }

// BenchmarkSubmitHotPathWAL is the same path with every store
// mutation journaled through the group-committed WAL — the PR-6
// acceptance bar is staying within 35% of in-memory.
func BenchmarkSubmitHotPathWAL(b *testing.B) { perf.BenchSubmit(b, true) }

// BenchmarkBatchWait measures a 16-task submit + batch-wait round
// trip through POST /v1/tasks/wait.
func BenchmarkBatchWait(b *testing.B) { perf.BenchBatchWait(b) }

// BenchmarkDurabilityExperiment runs the §PR-6 durability driver
// (WAL crash recovery + shard drain) end to end in quick mode.
func BenchmarkDurabilityExperiment(b *testing.B) { runExperiment(b, "durability") }

// --- substrate micro-benchmarks ---

// BenchmarkSerializerString measures the string fast path.
func BenchmarkSerializerString(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err := serial.Serialize("hello-world")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := serial.Deserialize(buf, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerializerStruct measures the gob path on a task-like
// struct.
func BenchmarkSerializerStruct(b *testing.B) {
	type record struct {
		Name  string
		Score float64
		Tags  []string
	}
	v := record{Name: "sample", Score: 0.97, Tags: []string{"a", "b", "c"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err := serial.Serialize(v)
		if err != nil {
			b.Fatal(err)
		}
		var out record
		if _, err := serial.Deserialize(buf, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSerializerChainOrder contrasts the default
// fastest-first serializer chain with a JSON-first chain (the §4.6
// design choice: funcX sorts serializers by speed).
func BenchmarkAblationSerializerChainOrder(b *testing.B) {
	jsonFirst := serial.NewJSONFirstFacade()
	b.Run("fastest-first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := serial.Serialize("a-typical-string-payload"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json-first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := jsonFirst.Serialize("a-typical-string-payload"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreQueue measures reliable queue push/pop/ack cycles.
func BenchmarkStoreQueue(b *testing.B) {
	q := store.NewQueue()
	payload := []byte("task")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := q.Push(payload); err != nil {
			b.Fatal(err)
		}
		_, receipt, err := q.BPopReliable(time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if err := q.Ack(receipt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemoCache measures memo lookup+store cycles.
func BenchmarkMemoCache(b *testing.B) {
	c := memo.NewCache(1 << 12)
	res := types.Result{TaskID: "t", Output: []byte("42")}
	payload := []byte("input")
	c.Store("hash", payload, res)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Lookup("hash", payload); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkSimEngine measures discrete-event throughput (events/s).
func BenchmarkSimEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := scale.Run(scale.RunConfig{
			Model: scale.Theta, Containers: 1024, Tasks: 50_000,
			Batching: true, Prefetch: 64,
		})
		if r.Completion <= 0 {
			b.Fatal("no completion")
		}
	}
}
