package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"funcx/internal/fx"
	"funcx/internal/router"
	"funcx/internal/sdk"
	"funcx/internal/serial"
	"funcx/internal/service"
	"funcx/internal/types"
)

// countingRuntime registers an execution-counting function on every
// endpoint: each run of a key increments a shared counter, so lost
// and duplicated executions are directly observable.
type countingRuntime struct {
	mu     sync.Mutex
	counts map[string]int
	body   []byte
}

func newCountingRuntime(sleep time.Duration) *countingRuntime {
	return &countingRuntime{
		counts: make(map[string]int),
		body:   []byte(fmt.Sprintf("def count_once(key):  # sleep %v\n    COUNTS[key] += 1\n    return key\n", sleep)),
	}
}

func (c *countingRuntime) install(eps []*Endpoint, sleep time.Duration) {
	fn := func(_ context.Context, payload []byte) ([]byte, error) {
		var key string
		if _, err := serial.Deserialize(payload, &key); err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.counts[key]++
		c.mu.Unlock()
		time.Sleep(sleep)
		return serial.Serialize(key)
	}
	for _, ep := range eps {
		ep.Runtime.RegisterHash(fx.HashBody(c.body), fn)
	}
}

func (c *countingRuntime) duplicates() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.counts {
		if v > 1 {
			n++
		}
	}
	return n
}

// waitForOutstanding blocks until the endpoint's forwarder holds
// dispatched (leased) tasks, so a subsequent kill lands mid-execution.
func waitForOutstanding(t *testing.T, f *Fabric, ep *Endpoint) {
	t.Helper()
	fwd, ok := f.Service.Forwarder(ep.ID)
	if !ok {
		t.Fatalf("no forwarder for %s", ep.ID)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fwd.Outstanding() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("endpoint never held dispatched tasks")
		}
		time.Sleep(time.Millisecond)
	}
}

// submitCounting submits n counting tasks to the group as futures.
func submitCounting(t *testing.T, client *sdk.Client, fnID types.FunctionID, gid types.GroupID, n, offset int, atMostOnce bool) []*sdk.Future {
	t.Helper()
	ctx := context.Background()
	futs := make([]*sdk.Future, 0, n)
	for i := 0; i < n; i++ {
		payload, err := serial.Serialize(fmt.Sprintf("task-%d", offset+i))
		if err != nil {
			t.Fatalf("Serialize: %v", err)
		}
		fut, err := client.SubmitFuture(ctx, sdk.SubmitSpec{
			Function: fnID, Group: gid, Payload: payload,
			Walltime: 200 * time.Millisecond, AtMostOnce: atMostOnce,
		})
		if err != nil {
			t.Fatalf("SubmitFuture %d: %v", i, err)
		}
		futs = append(futs, fut)
	}
	return futs
}

// TestKillAgentMidExecutionAtLeastOnce is the delivery-semantics
// acceptance scenario for the default mode: an agent is killed while
// it holds dispatched (running) tasks, and every task must still
// complete — dispatched tasks are reclaimed through the failover path
// instead of vanishing and hanging their futures.
func TestKillAgentMidExecutionAtLeastOnce(t *testing.T) {
	f := newTestFabric(t)
	eps := addGroupEndpoints(t, f, "alice", []int{4, 4, 4})
	rt := newCountingRuntime(20 * time.Millisecond)
	rt.install(eps, 20*time.Millisecond)
	g, err := f.GroupOf("alice", "rel", string(router.LeastOutstanding), eps...)
	if err != nil {
		t.Fatalf("GroupOf: %v", err)
	}
	client := f.Client("alice")
	defer client.Close()
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "count", rt.body, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatalf("RegisterFunction: %v", err)
	}

	const n = 60
	futs := submitCounting(t, client, fnID, g.ID, n/2, 0, false)
	waitForOutstanding(t, f, eps[0])
	eps[0].Disconnect() // kill mid-execution, never returns
	futs = append(futs, submitCounting(t, client, fnID, g.ID, n/2, n/2, false)...)

	gctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for i, fut := range futs {
		res, err := fut.Get(gctx)
		if err != nil {
			t.Fatalf("task %d: future did not resolve: %v", i, err)
		}
		if res.Err != nil {
			t.Fatalf("task %d lost after agent kill: %v", i, res.Err)
		}
	}
	if retried, lost := f.Service.DeliveryStats(); retried == 0 {
		t.Error("no dispatched tasks were reclaimed (kill missed the in-flight window?)")
	} else if lost != 0 {
		t.Errorf("%d tasks lost in at-least-once mode", lost)
	}
}

// TestKillAgentMidExecutionAtMostOnceNoDuplicates: in at-most-once
// mode the same kill must produce zero double executions — dispatched
// tasks on the dead agent resolve fast as TaskLost instead of being
// redelivered, and every future still resolves.
func TestKillAgentMidExecutionAtMostOnceNoDuplicates(t *testing.T) {
	f := newTestFabric(t)
	eps := addGroupEndpoints(t, f, "alice", []int{4, 4, 4})
	rt := newCountingRuntime(20 * time.Millisecond)
	rt.install(eps, 20*time.Millisecond)
	g, err := f.GroupOf("alice", "rel-amo", string(router.LeastOutstanding), eps...)
	if err != nil {
		t.Fatalf("GroupOf: %v", err)
	}
	client := f.Client("alice")
	defer client.Close()
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "count", rt.body, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatalf("RegisterFunction: %v", err)
	}

	const n = 60
	futs := submitCounting(t, client, fnID, g.ID, n/2, 0, true)
	waitForOutstanding(t, f, eps[0])
	eps[0].Disconnect()
	futs = append(futs, submitCounting(t, client, fnID, g.ID, n/2, n/2, true)...)

	gctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	completed, lost := 0, 0
	for i, fut := range futs {
		res, err := fut.Get(gctx)
		if err != nil {
			t.Fatalf("task %d: future did not resolve: %v", i, err)
		}
		switch {
		case res.Err == nil:
			completed++
		case errors.Is(res.Err, sdk.ErrTaskLost):
			lost++
		default:
			t.Fatalf("task %d failed unexpectedly: %v", i, res.Err)
		}
	}
	if completed+lost != n {
		t.Fatalf("completed %d + lost %d != %d submitted", completed, lost, n)
	}
	if lost == 0 {
		t.Error("no tasks were lost although the agent held dispatched tasks at kill")
	}
	if d := rt.duplicates(); d != 0 {
		t.Fatalf("%d tasks executed more than once in at-most-once mode", d)
	}
}

// TestRetryBudgetExhaustionResolvesTaskLost: a task whose dispatch
// lease keeps expiring (the agent has no workers) must land as
// TaskLost once its MaxRetries budget is spent — with a resolved, not
// hung, future and a "lost" status record.
func TestRetryBudgetExhaustionResolvesTaskLost(t *testing.T) {
	f, err := NewFabric(FabricConfig{Service: service.Config{
		HeartbeatPeriod: 25 * time.Millisecond,
		HeartbeatMisses: 3,
		DispatchLease:   100 * time.Millisecond,
		// The record (and so its status) lives only as long as the
		// result: retain it past retrieval so the status read below
		// cannot race the purge that follows the future's resolution.
		ResultTTL: time.Minute,
	}})
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	t.Cleanup(f.Close)
	// An agent with zero managers: tasks dispatch and then black-hole.
	ep, err := f.AddEndpoint(EndpointOptions{
		Name: "wedged", Owner: "alice", Managers: 0, WorkersPerManager: 1,
		HeartbeatPeriod: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("AddEndpoint: %v", err)
	}
	client := f.Client("alice")
	defer client.Close()
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "echo", fx.BodyEcho, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatalf("RegisterFunction: %v", err)
	}
	payload, _ := serial.Serialize("never-runs")
	fut, err := client.SubmitFuture(ctx, sdk.SubmitSpec{
		Function: fnID, Endpoint: ep.ID, Payload: payload, MaxRetries: 1,
	})
	if err != nil {
		t.Fatalf("SubmitFuture: %v", err)
	}
	gctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	res, err := fut.Get(gctx)
	if err != nil {
		t.Fatalf("future hung instead of resolving TaskLost: %v", err)
	}
	if !errors.Is(res.Err, sdk.ErrTaskLost) {
		t.Fatalf("result error = %v, want ErrTaskLost", res.Err)
	}
	if !errors.Is(res.Err, sdk.ErrTaskFailed) {
		t.Errorf("lost error should also match ErrTaskFailed, got %v", res.Err)
	}
	st, err := client.Status(ctx, fut.TaskID())
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st != types.TaskLost {
		t.Fatalf("status = %q, want %q", st, types.TaskLost)
	}
	if retried, lost := f.Service.DeliveryStats(); retried != 1 || lost != 1 {
		t.Errorf("delivery stats retried=%d lost=%d, want 1 and 1", retried, lost)
	}
}

// TestRunningEventEmittedInOrder: the reserved TaskRunning status is
// now emitted end-to-end (worker → manager → agent → forwarder →
// service → event bus), and the per-task stream order
// queued ≤ dispatched ≤ running ≤ terminal holds.
func TestRunningEventEmittedInOrder(t *testing.T) {
	f := newTestFabric(t)
	ep, err := f.AddEndpoint(EndpointOptions{
		Name: "run-ep", Owner: "alice", Managers: 1, WorkersPerManager: 2,
		PrewarmWorkers: 2, HeartbeatPeriod: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("AddEndpoint: %v", err)
	}
	sub := f.Service.Events.Subscribe("alice")
	defer sub.Cancel()
	client := f.Client("alice")
	defer client.Close()
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "sleep", fx.BodySleep, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatalf("RegisterFunction: %v", err)
	}
	fut, err := client.SubmitFuture(ctx, sdk.SubmitSpec{
		Function: fnID, Endpoint: ep.ID, Payload: fx.SleepArgs(0.05),
	})
	if err != nil {
		t.Fatalf("SubmitFuture: %v", err)
	}
	gctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	if res, err := fut.Get(gctx); err != nil || res.Err != nil {
		t.Fatalf("task failed: %v / %v", err, res.Err)
	}

	var seq []types.TaskStatus
	deadline := time.After(5 * time.Second)
	for len(seq) == 0 || !seq[len(seq)-1].Terminal() {
		select {
		case ev := <-sub.C:
			if ev.TaskID == fut.TaskID() {
				seq = append(seq, ev.Status)
			}
		case <-deadline:
			t.Fatalf("terminal event never arrived; saw %v", seq)
		}
	}
	want := []types.TaskStatus{types.TaskQueued, types.TaskDispatched, types.TaskRunning, types.TaskSuccess}
	if len(seq) != len(want) {
		t.Fatalf("event sequence = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("event %d = %q, want %q (full: %v)", i, seq[i], want[i], seq)
		}
	}
}
