package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"funcx/internal/fx"
	"funcx/internal/sdk"
	"funcx/internal/serial"
	"funcx/internal/service"
	"funcx/internal/types"
)

// newTestFabric boots a fabric with fast heartbeats for tests.
func newTestFabric(t *testing.T) *Fabric {
	t.Helper()
	f, err := NewFabric(FabricConfig{
		Service: service.Config{
			HeartbeatPeriod: 50 * time.Millisecond,
			HeartbeatMisses: 3,
		},
	})
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

func TestEndToEndEcho(t *testing.T) {
	f := newTestFabric(t)
	ep, err := f.AddEndpoint(EndpointOptions{
		Name:     "test-ep",
		Owner:    "alice",
		Managers: 2, WorkersPerManager: 2,
		HeartbeatPeriod: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("AddEndpoint: %v", err)
	}
	client := f.Client("alice")
	ctx := context.Background()

	fnID, err := client.RegisterFunction(ctx, "echo", fx.BodyEcho, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatalf("RegisterFunction: %v", err)
	}
	payload, err := serial.Serialize("hello-world")
	if err != nil {
		t.Fatalf("Serialize: %v", err)
	}
	taskID, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID, Payload: payload})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res, err := client.GetResult(ctx, taskID)
	if err != nil {
		t.Fatalf("GetResult: %v", err)
	}
	if res.Err != nil {
		t.Fatalf("task failed: %v", res.Err)
	}
	var out string
	if _, err := res.Value(&out); err != nil {
		t.Fatalf("Value: %v", err)
	}
	if out != "hello-world" {
		t.Fatalf("echo returned %q, want %q", out, "hello-world")
	}
	if res.Timing.TW <= 0 {
		t.Errorf("timing TW not recorded: %+v", res.Timing)
	}
}

func TestEndToEndManyTasks(t *testing.T) {
	f := newTestFabric(t)
	ep, err := f.AddEndpoint(EndpointOptions{
		Name:  "many-ep",
		Owner: "alice", Managers: 4, WorkersPerManager: 4,
		BatchDispatch:   true,
		HeartbeatPeriod: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("AddEndpoint: %v", err)
	}
	client := f.Client("alice")
	ctx := context.Background()

	fnID, err := client.RegisterFunction(ctx, "sleep", fx.BodySleep, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatalf("RegisterFunction: %v", err)
	}
	const n = 60
	ids := make([]types.TaskID, n)
	for i := range ids {
		id, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID, Payload: fx.SleepArgs(0.001)})
		if err != nil {
			t.Fatalf("Run %d: %v", i, err)
		}
		ids[i] = id
	}
	results, err := client.GetResults(ctx, ids)
	if err != nil {
		t.Fatalf("GetResults: %v", err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("task %d failed: %v", i, r.Err)
		}
	}
}

func TestFailedFunctionPropagatesTraceback(t *testing.T) {
	f := newTestFabric(t)
	ep, err := f.AddEndpoint(EndpointOptions{
		Name:  "fail-ep",
		Owner: "alice", Managers: 1, WorkersPerManager: 1,
		HeartbeatPeriod: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("AddEndpoint: %v", err)
	}
	client := f.Client("alice")
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "fail", fx.BodyFail, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatalf("RegisterFunction: %v", err)
	}
	taskID, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res, err := client.GetResult(ctx, taskID)
	if err != nil {
		t.Fatalf("GetResult: %v", err)
	}
	if res.Err == nil {
		t.Fatal("expected task failure, got success")
	}
}

func TestMapBatching(t *testing.T) {
	f := newTestFabric(t)
	ep, err := f.AddEndpoint(EndpointOptions{
		Name:  "map-ep",
		Owner: "alice", Managers: 2, WorkersPerManager: 4,
		BatchDispatch:   true,
		HeartbeatPeriod: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("AddEndpoint: %v", err)
	}
	client := f.Client("alice")
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "echo", fx.BodyEcho, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatalf("RegisterFunction: %v", err)
	}
	const n = 100
	items := func(yield func(any) bool) {
		for i := 0; i < n; i++ {
			if !yield(fmt.Sprintf("item-%d", i)) {
				return
			}
		}
	}
	h, err := client.Map(ctx, fnID, ep.ID, items, 16, 0)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if h.Total() != n {
		t.Fatalf("Map handle total = %d, want %d", h.Total(), n)
	}
	outs, err := client.MapResults(ctx, h)
	if err != nil {
		t.Fatalf("MapResults: %v", err)
	}
	if len(outs) != n {
		t.Fatalf("MapResults returned %d items, want %d", len(outs), n)
	}
	var s string
	if _, err := serial.Deserialize(outs[42], &s); err != nil {
		t.Fatalf("Deserialize: %v", err)
	}
	if s != "item-42" {
		t.Fatalf("item 42 = %q, want item-42", s)
	}
}

func TestMemoizationRoundTrip(t *testing.T) {
	f := newTestFabric(t)
	ep, err := f.AddEndpoint(EndpointOptions{
		Name:  "memo-ep",
		Owner: "alice", Managers: 1, WorkersPerManager: 2,
		SleepScale:      0.01, // 1 s double() becomes 10 ms
		HeartbeatPeriod: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("AddEndpoint: %v", err)
	}
	client := f.Client("alice")
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "double", fx.BodyDouble, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatalf("RegisterFunction: %v", err)
	}

	// First invocation executes.
	id1, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID, Payload: fx.SleepArgs(21), Memoize: true})
	if err != nil {
		t.Fatalf("Run 1: %v", err)
	}
	r1, err := client.GetResult(ctx, id1)
	if err != nil {
		t.Fatalf("GetResult 1: %v", err)
	}
	if r1.Memoized {
		t.Fatal("first invocation unexpectedly memoized")
	}
	v1, err := fx.DecodeFloat(r1.Output)
	if err != nil || v1 != 42 {
		t.Fatalf("double(21) = %v (err %v), want 42", v1, err)
	}

	// Second identical invocation is served from cache.
	id2, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID, Payload: fx.SleepArgs(21), Memoize: true})
	if err != nil {
		t.Fatalf("Run 2: %v", err)
	}
	r2, err := client.GetResult(ctx, id2)
	if err != nil {
		t.Fatalf("GetResult 2: %v", err)
	}
	if !r2.Memoized {
		t.Fatal("second invocation not memoized")
	}
	v2, err := fx.DecodeFloat(r2.Output)
	if err != nil || v2 != 42 {
		t.Fatalf("memoized double(21) = %v (err %v), want 42", v2, err)
	}
}
