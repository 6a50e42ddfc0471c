package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"funcx/internal/auth"
	"funcx/internal/events"
	"funcx/internal/router"
	"funcx/internal/serial"
	"funcx/internal/types"
	"funcx/internal/wal"
	"funcx/internal/wire"
)

// microTime is how long each microbenchmark loop runs.
const microTime = 100 * time.Millisecond

// sink keeps the compiler from discarding measured calls.
var sink any

// nsPerOp times f in a loop of growing length until one loop takes at
// least microTime, and returns the mean ns per call of that loop.
func nsPerOp(f func()) float64 {
	for n := 1; ; n *= 2 {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if el := time.Since(start); el >= microTime {
			return float64(el.Nanoseconds()) / float64(n)
		}
	}
}

// allocsPerOp counts heap allocations per call; the count is exact for
// code that allocates the same way on every call.
func allocsPerOp(f func()) float64 { return testing.AllocsPerRun(200, f) }

// shapes are records shaped like the ones a workload's tasks produce:
// the run's real function, endpoint and task ids, the workload's
// payload size, and the trace context and deltas of a sampled task.
type shapes struct {
	task   *types.Task
	result *types.Result
	batch  []*types.Task // batchSize tasks, for the batch codec
}

func newShapes(w workload, seed int64, fn types.FunctionID, ep types.EndpointID, id types.TaskID) shapes {
	now := time.Now()
	p := payload(seed, -1, w.payloadSize)
	t := &types.Task{
		ID: id, FunctionID: fn, EndpointID: ep, Owner: user, Payload: p,
		BodyHash:  fmt.Sprintf("%064x", seed),
		Submitted: now,
		Trace:     &types.TraceContext{Sampled: true, TraceID: fmt.Sprintf("%032x", seed)},
	}
	r := &types.Result{
		TaskID: id, Output: p, Completed: now,
		Timing:   types.Timing{TS: 180 * time.Microsecond, TF: 90 * time.Microsecond, TE: 12 * time.Microsecond, TW: 40 * time.Microsecond},
		WorkerID: "bench-mgr-1-w0",
		Trace:    &types.TraceDeltas{Exec: 12 * time.Microsecond, ManagerQueue: 30 * time.Microsecond, AgentQueue: 50 * time.Microsecond},
	}
	s := shapes{task: t, result: r}
	for i := 0; i < batchSize; i++ {
		bt := *t
		bt.ID = types.TaskID(fmt.Sprintf("%s-%03d", id, i))
		bt.Payload = payload(seed, -2-i, w.payloadSize)
		s.batch = append(s.batch, &bt)
	}
	return s
}

// micro runs the per-layer microbenchmarks on workload-shaped records
// and adds them to rep. Scratch files go under dir.
func micro(rep *report, s shapes, dir string) error {
	// wire: the task and result codecs every hop runs.
	enc := wire.EncodeTask(s.task)
	rep.add("wire.task_encode_ns", "ns", nsPerOp(func() { sink = wire.EncodeTask(s.task) }), 0)
	rep.add("wire.task_decode_ns", "ns", nsPerOp(func() { sink, _ = wire.DecodeTask(enc) }), 0)
	rep.add("wire.task_allocs", "allocs", allocsPerOp(func() { sink, _ = wire.DecodeTask(enc) }), 0)
	rep.add("wire.task_bytes", "B", float64(len(enc)), 0)
	renc := wire.EncodeResult(s.result)
	rep.add("wire.result_encode_ns", "ns", nsPerOp(func() { sink = wire.EncodeResult(s.result) }), 0)
	rep.add("wire.result_decode_ns", "ns", nsPerOp(func() { sink, _ = wire.DecodeResult(renc) }), 0)
	rep.add("wire.result_allocs", "allocs", allocsPerOp(func() { sink, _ = wire.DecodeResult(renc) }), 0)
	benc := wire.EncodeTasks(s.batch)
	rep.add("wire.batch256_decode_ns_per_task", "ns", nsPerOp(func() { sink, _ = wire.DecodeTasks(benc) })/float64(len(s.batch)), 0)

	// wal: one journaled task record appended and made durable.
	wdir := filepath.Join(dir, fmt.Sprintf("micro-wal-%d", os.Getpid()))
	defer os.RemoveAll(wdir)
	lg, err := wal.Open(wal.Options{Dir: wdir})
	if err != nil {
		return fmt.Errorf("micro wal: %w", err)
	}
	var werr error
	us := nsPerOp(func() {
		if err := lg.Append(enc); err != nil && werr == nil {
			werr = err
		}
		if err := lg.Sync(); err != nil && werr == nil {
			werr = err
		}
	}) / 1e3
	if err := lg.Close(); err != nil && werr == nil {
		werr = err
	}
	if werr != nil {
		return fmt.Errorf("micro wal: %w", werr)
	}
	rep.add("wal.append_sync_us", "us", us, 0)

	// router: placement on a 2-member least-outstanding group.
	g := &types.EndpointGroup{ID: "bench-group", Policy: string(router.LeastOutstanding),
		Members: []types.GroupMember{{EndpointID: "ep-a"}, {EndpointID: "ep-b"}}}
	status := map[types.EndpointID]*types.EndpointStatus{
		"ep-a": {ID: "ep-a", Connected: true, Workers: 4, IdleWorkers: 2, QueuedTasks: 3, OutstandingTasks: 2},
		"ep-b": {ID: "ep-b", Connected: true, Workers: 4, IdleWorkers: 4, QueuedTasks: 1},
	}
	rt := router.New(func(id types.EndpointID) *types.EndpointStatus { return status[id] },
		func(types.EndpointID) map[string]string { return nil })
	req := router.Request{Group: g}
	rep.add("router.route_ns", "ns", nsPerOp(func() { sink, _ = rt.Route(req) }), 0)
	rep.add("router.route_batch_ns_per_task", "ns", nsPerOp(func() { sink, _ = rt.RouteBatch(req, batchSize) })/batchSize, 0)

	// events: one terminal event with its inline result.
	bus := events.New(events.Config{})
	ev := types.TaskEvent{TaskID: s.task.ID, Status: types.TaskSuccess, EndpointID: s.task.EndpointID, Result: renc, Time: time.Now()}
	rep.add("events.publish_ns", "ns", nsPerOp(func() { sink = bus.Publish(user, ev) }), 0)

	// auth: the bearer-token check every request pays.
	a := auth.NewAuthority()
	tok := a.Mint(user, time.Hour, auth.ScopeAll)
	rep.add("auth.verify_ns", "ns", nsPerOp(func() { sink, _ = a.Verify(tok) }), 0)

	// serial: packing a batch's worth of payloads into one buffer.
	parts := make([]serial.Part, len(s.batch))
	for i, t := range s.batch {
		parts[i] = serial.Part{Tag: "args", Body: t.Payload}
	}
	rep.add("serial.pack_ns_per_item", "ns", nsPerOp(func() { sink = serial.Pack(parts...) })/float64(len(parts)), 0)
	return nil
}
