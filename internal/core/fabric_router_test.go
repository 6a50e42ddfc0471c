package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"funcx/internal/fx"
	"funcx/internal/router"
	"funcx/internal/sdk"
	"funcx/internal/serial"
	"funcx/internal/types"
)

// addGroupEndpoints boots n endpoints owned by owner with the given
// per-endpoint worker capacities, returning the handles.
func addGroupEndpoints(t *testing.T, f *Fabric, owner types.UserID, workers []int) []*Endpoint {
	t.Helper()
	eps := make([]*Endpoint, len(workers))
	for i, w := range workers {
		ep, err := f.AddEndpoint(EndpointOptions{
			Name:  fmt.Sprintf("fleet-ep-%d", i),
			Owner: owner, Managers: 1, WorkersPerManager: w,
			BatchDispatch:   true,
			HeartbeatPeriod: 50 * time.Millisecond,
			Labels:          map[string]string{"rank": fmt.Sprint(i)},
		})
		if err != nil {
			t.Fatalf("AddEndpoint %d: %v", i, err)
		}
		eps[i] = ep
	}
	return eps
}

func TestRunAnywhereSpreadsAcrossGroup(t *testing.T) {
	f := newTestFabric(t)
	eps := addGroupEndpoints(t, f, "alice", []int{2, 2, 2})
	g, err := f.GroupOf("alice", "fleet", string(router.RoundRobin), eps...)
	if err != nil {
		t.Fatalf("GroupOf: %v", err)
	}
	client := f.Client("alice")
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "echo", fx.BodyEcho, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatalf("RegisterFunction: %v", err)
	}
	payload, err := serial.Serialize("anywhere")
	if err != nil {
		t.Fatalf("Serialize: %v", err)
	}

	const n = 30
	placed := map[types.EndpointID]int{}
	ids := make([]types.TaskID, n)
	for i := range ids {
		id, epID, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Group: g.ID, Payload: payload})
		if err != nil {
			t.Fatalf("RunAnywhere %d: %v", i, err)
		}
		placed[epID]++
		ids[i] = id
	}
	if len(placed) != len(eps) {
		t.Fatalf("round-robin used %d endpoints, want %d: %v", len(placed), len(eps), placed)
	}
	results, err := client.GetResults(ctx, ids)
	if err != nil {
		t.Fatalf("GetResults: %v", err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("task %d failed: %v", i, r.Err)
		}
		var out string
		if _, err := r.Value(&out); err != nil || out != "anywhere" {
			t.Fatalf("task %d output %q (err %v)", i, out, err)
		}
	}
}

// TestGroupFailoverNoTaskLost is the acceptance scenario: four
// heterogeneous endpoints in one least-outstanding group, 200 tasks
// submitted through the group target, one endpoint killed mid-run.
// Every task must complete on the survivors — the forwarder requeues
// the dead endpoint's outstanding tasks (at-least-once) and the
// router's failover path re-routes them to connected members.
func TestGroupFailoverNoTaskLost(t *testing.T) {
	f := newTestFabric(t)
	eps := addGroupEndpoints(t, f, "alice", []int{4, 2, 2, 1})
	g, err := f.GroupOf("alice", "fleet", string(router.LeastOutstanding), eps...)
	if err != nil {
		t.Fatalf("GroupOf: %v", err)
	}
	client := f.Client("alice")
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "sleep", fx.BodySleep, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatalf("RegisterFunction: %v", err)
	}

	const n = 200
	args := fx.SleepArgs(0.01) // 10 ms of work per task
	ids := make([]types.TaskID, 0, n)
	victim := eps[0] // the biggest endpoint, so it holds queued work when killed

	// First half: build a backlog across the fleet.
	for i := 0; i < n/2; i++ {
		id, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Group: g.ID, Payload: args})
		if err != nil {
			t.Fatalf("RunAnywhere %d: %v", i, err)
		}
		ids = append(ids, id)
	}

	// Kill one endpoint mid-run: its agent drops and never returns.
	victim.Disconnect()

	// Second half: the router must now avoid the dead endpoint.
	for i := n / 2; i < n; i++ {
		id, epID, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Group: g.ID, Payload: args})
		if err != nil {
			t.Fatalf("RunAnywhere %d: %v", i, err)
		}
		ids = append(ids, id)
		// After loss detection (3 heartbeats) no new task may land on
		// the victim; allow the detection window itself.
		if epID == victim.ID && i > n/2+40 {
			t.Fatalf("task %d placed on dead endpoint %s", i, victim.ID)
		}
	}

	done := make(chan error, 1)
	go func() {
		results, err := client.GetResults(ctx, ids)
		if err != nil {
			done <- err
			return
		}
		for i, r := range results {
			if r.Err != nil {
				done <- fmt.Errorf("task %d failed: %w", i, r.Err)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("tasks did not all complete within 30s after endpoint kill")
	}

	// The victim's queued tasks must have moved, not re-run in place:
	// the failover counter accounts for every re-routed task.
	if f.Service.Rerouted() == 0 {
		t.Error("no tasks were re-routed off the dead endpoint (kill happened too late?)")
	}
	st, err := client.EndpointStatus(ctx, victim.ID)
	if err != nil {
		t.Fatalf("EndpointStatus: %v", err)
	}
	if st.Connected {
		t.Error("victim still reports connected")
	}
	if st.QueuedTasks != 0 {
		t.Errorf("victim still holds %d queued tasks after failover", st.QueuedTasks)
	}
}

func TestMapAnywhereSpreadsBatches(t *testing.T) {
	f := newTestFabric(t)
	eps := addGroupEndpoints(t, f, "alice", []int{2, 2})
	g, err := f.GroupOf("alice", "map-fleet", string(router.RoundRobin), eps...)
	if err != nil {
		t.Fatalf("GroupOf: %v", err)
	}
	client := f.Client("alice")
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "echo", fx.BodyEcho, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatalf("RegisterFunction: %v", err)
	}
	const n = 40
	items := func(yield func(any) bool) {
		for i := 0; i < n; i++ {
			if !yield(fmt.Sprintf("item-%d", i)) {
				return
			}
		}
	}
	h, err := client.MapAnywhere(ctx, fnID, g.ID, items, 10, 0)
	if err != nil {
		t.Fatalf("MapAnywhere: %v", err)
	}
	if h.Total() != n {
		t.Fatalf("handle total = %d, want %d", h.Total(), n)
	}
	outs, err := client.MapResults(ctx, h)
	if err != nil {
		t.Fatalf("MapResults: %v", err)
	}
	if len(outs) != n {
		t.Fatalf("MapResults = %d items, want %d", len(outs), n)
	}
	var s string
	if _, err := serial.Deserialize(outs[7], &s); err != nil || s != "item-7" {
		t.Fatalf("item 7 = %q (err %v)", s, err)
	}
}

func TestLabelAffinityPinsToMatchingEndpoint(t *testing.T) {
	f := newTestFabric(t)
	cpu, err := f.AddEndpoint(EndpointOptions{
		Name: "cpu-ep", Owner: "alice", Managers: 1, WorkersPerManager: 2,
		HeartbeatPeriod: 50 * time.Millisecond,
		Labels:          map[string]string{"arch": "cpu"},
	})
	if err != nil {
		t.Fatalf("AddEndpoint: %v", err)
	}
	gpu, err := f.AddEndpoint(EndpointOptions{
		Name: "gpu-ep", Owner: "alice", Managers: 1, WorkersPerManager: 2,
		HeartbeatPeriod: 50 * time.Millisecond,
		Labels:          map[string]string{"arch": "gpu"},
	})
	if err != nil {
		t.Fatalf("AddEndpoint: %v", err)
	}
	g, err := f.GroupOf("alice", "het", string(router.LabelAffinity), cpu, gpu)
	if err != nil {
		t.Fatalf("GroupOf: %v", err)
	}
	client := f.Client("alice")
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "echo", fx.BodyEcho, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatalf("RegisterFunction: %v", err)
	}
	payload, _ := serial.Serialize("gpu-work")
	for i := 0; i < 5; i++ {
		_, epID, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Group: g.ID, Payload: payload,
			Labels: map[string]string{"arch": "gpu"}})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if epID != gpu.ID {
			t.Fatalf("submission %d placed on %s, want gpu endpoint", i, epID)
		}
	}
}
