// Package perf holds the control-plane benchmark bodies shared by
// `go test -bench` (bench_test.go) and cmd/funcx-perf, the harness
// that runs them standalone and emits bench-report.json. Keeping the
// bodies here means the CI artifact and the developer benchmarks
// measure exactly the same code paths.
package perf

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"funcx/internal/core"
	"funcx/internal/fx"
	"funcx/internal/sdk"
	"funcx/internal/serial"
	"funcx/internal/service"
	"funcx/internal/types"
)

// env is one booted fabric with a single executing endpoint, a
// registered noop function, and an authenticated client — the fixture
// every bench body runs against. WAL-backed envs journal to a
// temporary directory removed on Close.
type env struct {
	fab    *core.Fabric
	ep     *core.Endpoint
	client *sdk.Client
	fnID   types.FunctionID
	dir    string
}

func newEnv(wal bool) (*env, error) { return newEnvCfg(wal, false) }

// newEnvCfg also controls tracing: noTrace boots the service with the
// per-task trace collector disabled, the baseline of the
// tracing-overhead comparison.
func newEnvCfg(wal, noTrace bool) (*env, error) {
	cfg := service.Config{HeartbeatPeriod: 100 * time.Millisecond, DisableTrace: noTrace}
	return newEnvService(cfg, wal)
}

// newEnvService boots a fabric over an explicit service config (wal
// adds a journaled temp data dir).
func newEnvService(cfg service.Config, wal bool) (*env, error) {
	e := &env{}
	if wal {
		dir, err := os.MkdirTemp("", "funcx-perf-*")
		if err != nil {
			return nil, err
		}
		e.dir = dir
		cfg.DataDir = dir
	}
	fab, err := core.NewFabric(core.FabricConfig{Service: cfg})
	if err != nil {
		e.Close()
		return nil, err
	}
	e.fab = fab
	ep, err := fab.AddEndpoint(core.EndpointOptions{
		Name: "perf", Owner: "perf",
		Managers: 1, WorkersPerManager: 8, PrewarmWorkers: 8,
		BatchDispatch:   true,
		HeartbeatPeriod: 100 * time.Millisecond,
	})
	if err != nil {
		e.Close()
		return nil, err
	}
	e.ep = ep
	if err := ep.WaitForWorkers(1, 5*time.Second); err != nil {
		e.Close()
		return nil, err
	}
	e.client = fab.Client("perf")
	fnID, err := e.client.RegisterFunction(context.Background(), "noop", fx.BodyNoop, types.ContainerSpec{}, nil)
	if err != nil {
		e.Close()
		return nil, err
	}
	e.fnID = fnID
	return e, e.warm()
}

// warm pushes a few tasks through so connection setup, container
// spin-up, and the first WAL segment are off the clock.
func (e *env) warm() error {
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		id, _, err := e.client.Submit(ctx, sdk.SubmitSpec{Function: e.fnID, Endpoint: e.ep.ID})
		if err != nil {
			return err
		}
		if _, err := e.client.GetResult(ctx, id); err != nil {
			return err
		}
	}
	return nil
}

func (e *env) Close() {
	if e.client != nil {
		e.client.Close()
	}
	if e.fab != nil {
		e.fab.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// drain gathers outstanding results off the clock so the next
// benchmark (or Close) starts from an empty store.
func (e *env) drain(ids []types.TaskID) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	results, err := e.client.GetResults(ctx, ids)
	if err != nil {
		return err
	}
	for _, res := range results {
		if res == nil || res.Err != nil {
			return fmt.Errorf("task failed: %+v", res)
		}
	}
	return nil
}

// BenchSubmit measures the submit hot path — authenticated HTTP
// POST /v1/submit against a live fabric — with the store either pure
// in-memory (wal=false) or journaling every mutation through the
// group-committed WAL (wal=true). Submissions run concurrently
// (b.RunParallel): group commit shares one fsync across the appends
// buffered in a sync window, so WAL throughput is only meaningful
// under the concurrency the design amortizes over. Results are
// gathered off the clock.
func BenchSubmit(b *testing.B, wal bool) {
	e, err := newEnv(wal)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	benchSubmitEnv(b, e)
}

// BenchSubmitOTLP is BenchSubmit with tracing on and OTLP span export
// toggled against a stub collector that accepts every batch — the
// profiling handle for the export-overhead comparison. Export must
// stay off the hot path: Finish hands each completed timeline to the
// exporter's never-blocking queue, so enabled-vs-disabled should be
// dominated by noise.
func BenchSubmitOTLP(b *testing.B, export bool) {
	collector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // drain and accept
		w.WriteHeader(http.StatusOK)
	}))
	defer collector.Close()
	cfg := service.Config{HeartbeatPeriod: 100 * time.Millisecond}
	if export {
		cfg.OTLPEndpoint = collector.URL
	}
	e, err := newEnvService(cfg, false)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	benchSubmitEnv(b, e)
}

// BenchSubmitTrace is BenchSubmit with the store in-memory and
// per-task tracing toggled — the profiling handle for the
// tracing-overhead comparison.
func BenchSubmitTrace(b *testing.B, traced bool) {
	e, err := newEnvCfg(false, !traced)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	benchSubmitEnv(b, e)
}

func benchSubmitEnv(b *testing.B, e *env) {
	ctx := context.Background()
	// One client per worker goroutine: each holds its own HTTP
	// connection, like independent SDK users.
	const lanes = 16
	clients := make([]*sdk.Client, lanes)
	for i := range clients {
		clients[i] = e.fab.Client("perf")
		defer clients[i].Close()
	}
	var (
		mu   sync.Mutex
		ids  []types.TaskID
		lane atomic.Int32
	)
	b.ReportAllocs()
	b.SetParallelism((lanes + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := clients[int(lane.Add(1)-1)%lanes]
		var local []types.TaskID
		for pb.Next() {
			id, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: e.fnID, Endpoint: e.ep.ID})
			if err != nil {
				b.Error(err)
				return
			}
			local = append(local, id)
		}
		mu.Lock()
		ids = append(ids, local...)
		mu.Unlock()
	})
	b.StopTimer()
	if err := e.drain(ids); err != nil {
		b.Fatal(err)
	}
}

// SubmitThroughput measures sustained submit throughput (ops/s) over
// a fixed task count with 16 concurrent submitters — the same
// methodology as the durability experiment's overhead table, usable
// without a testing.B. Result gathering is off the clock.
func SubmitThroughput(wal bool, tasks int) (float64, error) {
	e, err := newEnv(wal)
	if err != nil {
		return 0, err
	}
	defer e.Close()
	return throughput(e, tasks)
}

// TraceThroughput is SubmitThroughput with the store in-memory and
// tracing either enabled (the default service configuration, which
// stamps a timeline per task and folds completed ones into stage
// histograms) or disabled — the two sides of the tracing-overhead
// ratio in bench-report.json.
func TraceThroughput(traced bool, tasks int) (float64, error) {
	e, err := newEnvCfg(false, !traced)
	if err != nil {
		return 0, err
	}
	defer e.Close()
	return throughput(e, tasks)
}

// TraceOverheadPaired measures the tracing overhead with both
// configurations held open for the whole comparison and short
// measurement windows interleaved untraced/traced/untraced/...
// Aggregate rates come from the summed wall time per side, so both
// sides sample the same machine weather — on small or shared boxes a
// single window swings far more than the overhead being measured, and
// comparing two monolithic runs reports that noise as overhead.
func TraceOverheadPaired(tasksPerWindow, windows int) (untraced, traced float64, err error) {
	off, err := newEnvCfg(false, true)
	if err != nil {
		return 0, 0, err
	}
	defer off.Close()
	on, err := newEnvCfg(false, false)
	if err != nil {
		return 0, 0, err
	}
	defer on.Close()

	var wallOff, wallOn float64
	window := func(e *env) (float64, error) {
		runtime.GC()
		return throughputWindow(e, tasksPerWindow)
	}
	for w := 0; w < windows; w++ {
		// Alternate which side runs first so slow drift (heap growth,
		// background jitter) taxes both sides equally.
		first, second := off, on
		if w%2 == 1 {
			first, second = on, off
		}
		s1, err := window(first)
		if err != nil {
			return 0, 0, err
		}
		s2, err := window(second)
		if err != nil {
			return 0, 0, err
		}
		if w%2 == 1 {
			s1, s2 = s2, s1
		}
		wallOff += s1
		wallOn += s2
	}
	total := float64(tasksPerWindow * windows)
	return total / wallOff, total / wallOn, nil
}

// throughput drives the 16-lane submit storm against a booted env and
// reports the rate.
func throughput(e *env, tasks int) (float64, error) {
	wall, err := throughputWindow(e, tasks)
	if err != nil {
		return 0, err
	}
	return float64(tasks/16*16) / wall, nil
}

// throughputWindow drives the 16-lane submit storm against a booted
// env and returns the wall seconds the submit phase took; result
// gathering is off the clock.
func throughputWindow(e *env, tasks int) (float64, error) {
	ctx := context.Background()
	const lanes = 16
	type lane struct {
		client *sdk.Client
		ids    []types.TaskID
		err    error
	}
	ls := make([]*lane, lanes)
	for i := range ls {
		ls[i] = &lane{client: e.fab.Client("perf")}
		defer ls[i].client.Close()
	}
	per := tasks / lanes
	var wg sync.WaitGroup
	start := time.Now()
	for _, l := range ls {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			for t := 0; t < per; t++ {
				id, _, err := l.client.Submit(ctx, sdk.SubmitSpec{Function: e.fnID, Endpoint: e.ep.ID})
				if err != nil {
					l.err = err
					return
				}
				l.ids = append(l.ids, id)
			}
		}(l)
	}
	wg.Wait()
	wall := time.Since(start)
	var ids []types.TaskID
	for _, l := range ls {
		if l.err != nil {
			return 0, l.err
		}
		ids = append(ids, l.ids...)
	}
	if err := e.drain(ids); err != nil {
		return 0, err
	}
	return wall.Seconds(), nil
}

// BatchSize is how many tasks each BenchBatchWait iteration submits
// and then collects through the batch-wait API.
const BatchSize = 16

// BenchBatchWait measures the batch round trip: submit BatchSize
// tasks, then gather all of them through POST /v1/tasks/wait (the
// PR-3 batch-wait API) until none remain pending.
func BenchBatchWait(b *testing.B) {
	e, err := newEnv(false)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	payload, err := serial.Serialize("ping")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids := make([]types.TaskID, 0, BatchSize)
		for j := 0; j < BatchSize; j++ {
			id, _, err := e.client.Submit(ctx, sdk.SubmitSpec{Function: e.fnID, Endpoint: e.ep.ID, Payload: payload})
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, id)
		}
		pending := ids
		for len(pending) > 0 {
			results, still, err := e.client.WaitTasks(ctx, pending, 10*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			for _, res := range results {
				if res != nil && res.Err != nil {
					b.Fatalf("batch task failed: %v", res.Err)
				}
			}
			pending = still
		}
	}
	b.StopTimer()
	b.ReportMetric(BatchSize, "tasks/op")
}
