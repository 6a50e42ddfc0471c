package core

import (
	"context"
	"testing"
	"time"

	"funcx/internal/elastic"
	"funcx/internal/fx"
	"funcx/internal/provider"
	"funcx/internal/registry"
	"funcx/internal/sdk"
	"funcx/internal/service"
	"funcx/internal/types"
)

// newElasticFabric boots a fabric with fast heartbeats and controller
// evaluations so elasticity converges within test timeouts.
func newElasticFabric(t *testing.T) *Fabric {
	t.Helper()
	f, err := NewFabric(FabricConfig{
		Service: service.Config{
			HeartbeatPeriod: 25 * time.Millisecond,
			HeartbeatMisses: 3,
			ElasticInterval: 25 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

// addElasticEndpoint boots a zero-manager endpoint whose capacity is
// entirely provider-driven, with a deliberately lazy local policy
// (TasksPerNode 100): local demand alone asks for at most one block,
// so any fleet growth beyond that is attributable to advice.
func addElasticEndpoint(t *testing.T, f *Fabric, name string, noAdvice bool) *Endpoint {
	t.Helper()
	ep, err := f.AddEndpoint(EndpointOptions{
		Name: name, Owner: "alice",
		Managers: 0, WorkersPerManager: 1,
		BatchDispatch:   true,
		HeartbeatPeriod: 25 * time.Millisecond,
		NoAdvice:        noAdvice,
	})
	if err != nil {
		t.Fatalf("AddEndpoint %s: %v", name, err)
	}
	err = ep.EnableElasticity(ElasticOptions{
		NewProvider: func(hooks provider.Hooks) provider.Provider {
			return provider.NewSim(provider.Config{Name: "test", NodesPerBlock: 1, MaxBlocks: 8, TimeScale: 0}, hooks)
		},
		Policy: provider.ScalingPolicy{
			MinBlocks: 0, MaxBlocks: 4, TasksPerNode: 100,
			IdleTimeout: 10 * time.Second, Aggressiveness: 1,
		},
		Interval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("EnableElasticity %s: %v", name, err)
	}
	return ep
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestGroupAdviceScalesFleetOutAndBackIn is the tentpole's closed loop
// end to end: service controller → forwarder heartbeat piggyback →
// agent → scaler override → provider blocks, then decay back to the
// local floor once the group goes idle.
func TestGroupAdviceScalesFleetOutAndBackIn(t *testing.T) {
	f := newElasticFabric(t)
	eps := []*Endpoint{
		addElasticEndpoint(t, f, "el-0", false),
		addElasticEndpoint(t, f, "el-1", false),
	}
	g, err := f.AddGroup("alice", registry.GroupSpec{
		Name:    "hot",
		Members: []types.GroupMember{{EndpointID: eps[0].ID}, {EndpointID: eps[1].ID}},
		Elastic: &types.ElasticSpec{Strategy: elastic.StrategyProportional, TasksPerBlock: 1},
	})
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	client := f.Client("alice")
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "sleep", fx.BodySleep, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatalf("RegisterFunction: %v", err)
	}

	// Burst: 12 tasks of 150 ms against a fleet with zero workers.
	const n = 12
	ids := make([]types.TaskID, n)
	for i := range ids {
		id, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Group: g.ID, Payload: fx.SleepArgs(0.15)})
		if err != nil {
			t.Fatalf("RunAnywhere %d: %v", i, err)
		}
		ids[i] = id
	}

	// Advice must reach the agents and recruit both members well past
	// the single block local policy would ask for.
	waitFor(t, 5*time.Second, "advice to reach both agents", func() bool {
		for _, ep := range eps {
			adv, _, ok := ep.Agent.Advice()
			if !ok || adv.GroupID != g.ID {
				return false
			}
		}
		return true
	})
	waitFor(t, 5*time.Second, "fleet to scale out on group backlog", func() bool {
		return eps[0].Agent.ManagerCount() >= 2 && eps[1].Agent.ManagerCount() >= 2
	})

	// Zero loss: every burst task completes.
	for i, id := range ids {
		res, err := client.GetResult(ctx, id)
		if err != nil || res.Err != nil {
			t.Fatalf("task %d: err=%v res=%+v", i, err, res)
		}
	}

	// Idle: the controller advises zero and the endpoints release down
	// to their floor long before the 10 s local idle timeout.
	waitFor(t, 5*time.Second, "fleet to scale back in after idle", func() bool {
		return eps[0].Agent.ManagerCount() == 0 && eps[1].Agent.ManagerCount() == 0
	})
}

// TestAdviceClampedByEndpointPolicy verifies the endpoint-side bound:
// a target far above MaxBlocks provisions exactly MaxBlocks.
func TestAdviceClampedByEndpointPolicy(t *testing.T) {
	f := newElasticFabric(t)
	ep := addElasticEndpoint(t, f, "clamped", false) // MaxBlocks 4
	g, err := f.AddGroup("alice", registry.GroupSpec{
		Name:    "hot",
		Members: []types.GroupMember{{EndpointID: ep.ID}},
		Elastic: &types.ElasticSpec{Strategy: elastic.StrategyProportional, TasksPerBlock: 1},
	})
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	client := f.Client("alice")
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "sleep", fx.BodySleep, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatalf("RegisterFunction: %v", err)
	}
	// 30 queued tasks → advice target 30, far beyond MaxBlocks 4.
	ids := make([]types.TaskID, 30)
	for i := range ids {
		id, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Group: g.ID, Payload: fx.SleepArgs(0.1)})
		if err != nil {
			t.Fatalf("RunAnywhere: %v", err)
		}
		ids[i] = id
	}
	waitFor(t, 5*time.Second, "clamped scale-out", func() bool {
		return ep.Agent.ManagerCount() == 4
	})
	// Give the control loop a few more rounds: the manager count must
	// never exceed the local ceiling.
	for i := 0; i < 20; i++ {
		if n := ep.Agent.ManagerCount(); n > 4 {
			t.Fatalf("advice exceeded MaxBlocks: %d managers", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, id := range ids {
		if res, err := client.GetResult(ctx, id); err != nil || res.Err != nil {
			t.Fatalf("task %d: err=%v", i, err)
		}
	}
}

// TestNoAdviceEndpointKeepsLocalScaling verifies the -no-advice path:
// the agent drops advice frames, so scaling stays purely local.
func TestNoAdviceEndpointKeepsLocalScaling(t *testing.T) {
	f := newElasticFabric(t)
	ep := addElasticEndpoint(t, f, "optout", true)
	g, err := f.AddGroup("alice", registry.GroupSpec{
		Name:    "hot",
		Members: []types.GroupMember{{EndpointID: ep.ID}},
		Elastic: &types.ElasticSpec{Strategy: elastic.StrategyProportional, TasksPerBlock: 1},
	})
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	client := f.Client("alice")
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "sleep", fx.BodySleep, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatalf("RegisterFunction: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Group: g.ID, Payload: fx.SleepArgs(0.05)}); err != nil {
			t.Fatalf("RunAnywhere: %v", err)
		}
	}
	// The controller pushes advice to the forwarder...
	waitFor(t, 5*time.Second, "controller to advise the forwarder", func() bool {
		fwd, ok := f.Service.Forwarder(ep.ID)
		return ok && fwd.Advice() != nil
	})
	// ...but the agent never accepts it, and local policy (TasksPerNode
	// 100 → one block) still completes the work at minimum capacity.
	waitFor(t, 5*time.Second, "local-only scale-out", func() bool {
		return ep.Agent.ManagerCount() >= 1
	})
	time.Sleep(200 * time.Millisecond)
	if _, _, ok := ep.Agent.Advice(); ok {
		t.Fatal("-no-advice agent accepted advice")
	}
	if n := ep.Agent.ManagerCount(); n > 1 {
		t.Fatalf("opted-out endpoint scaled to %d managers; local policy wants 1", n)
	}
}
