package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"funcx/internal/fx"
	"funcx/internal/provider"
	"funcx/internal/sdk"
	"funcx/internal/types"
)

func TestManagerFailureRecovery(t *testing.T) {
	f := newTestFabric(t)
	ep, err := f.AddEndpoint(EndpointOptions{
		Name: "ft-ep", Owner: "alice",
		Managers: 2, WorkersPerManager: 2,
		SleepScale:      0.01,
		HeartbeatPeriod: 40 * time.Millisecond,
		HeartbeatMisses: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := f.Client("alice")
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "sleep", fx.BodySleep, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Launch 12 tasks of ~300ms (scaled), kill a manager mid-flight,
	// start a replacement; every task must complete.
	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID, Payload: fx.SleepArgs(30)})
			if err != nil {
				errs <- err
				return
			}
			res, err := client.GetResult(ctx, id)
			if err != nil {
				errs <- err
				return
			}
			errs <- res.Err
		}()
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := ep.KillManager(0); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.AddManager(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("task failed across manager kill: %v", err)
		}
	}
}

func TestEndpointDisconnectRecovery(t *testing.T) {
	f := newTestFabric(t)
	ep, err := f.AddEndpoint(EndpointOptions{
		Name: "dc-ep", Owner: "alice",
		Managers: 1, WorkersPerManager: 2,
		HeartbeatPeriod: 40 * time.Millisecond,
		HeartbeatMisses: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := f.Client("alice")
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "echo", fx.BodyEcho, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	ep.Disconnect()
	// Submit while offline: tasks wait in the reliable queue.
	id, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID, Payload: []byte("01\nx")})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if _, err := client.TryResult(ctx, id); err == nil {
		t.Fatal("task completed while endpoint offline")
	}
	if err := ep.Reconnect(); err != nil {
		t.Fatal(err)
	}
	res, err := client.GetResult(ctx, id)
	if err != nil || res.Err != nil {
		t.Fatalf("post-reconnect result = %v, %v", err, res.Err)
	}
}

func TestContainerRouting(t *testing.T) {
	f := newTestFabric(t)
	ep, err := f.AddEndpoint(EndpointOptions{
		Name: "ctr-ep", Owner: "alice",
		Managers: 1, WorkersPerManager: 2,
		HeartbeatPeriod: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := f.Client("alice")
	ctx := context.Background()
	spec := types.ContainerSpec{Tech: types.ContainerDocker, Image: "special:1"}
	fnID, err := client.RegisterFunction(ctx, "echo", fx.BodyEcho, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID, Payload: []byte("01\nhello")})
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.GetResult(ctx, id)
	if err != nil || res.Err != nil {
		t.Fatalf("containerized run = %v, %v", err, res.Err)
	}
	// The endpoint's container runtime deployed the requested image.
	cold, _, _ := ep.Containers.Stats()
	if cold == 0 {
		t.Fatal("no container deployment recorded")
	}
}

func TestElasticityScalesOutAndIn(t *testing.T) {
	f := newTestFabric(t)
	ep, err := f.AddEndpoint(EndpointOptions{
		Name: "elastic-ep", Owner: "alice",
		Managers: 0, WorkersPerManager: 1,
		SleepScale:      0.01,
		HeartbeatPeriod: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var peak, last int
	var mu sync.Mutex
	err = ep.EnableElasticity(ElasticOptions{
		NewProvider: func(hooks provider.Hooks) provider.Provider {
			return provider.NewK8sSim(5, 0.02, 1, hooks)
		},
		Policy: provider.ScalingPolicy{
			MaxBlocks: 5, TasksPerNode: 1,
			IdleTimeout: 150 * time.Millisecond, Aggressiveness: 1,
		},
		Interval: 15 * time.Millisecond,
		OnScale: func(live, pending, queued, running int) {
			mu.Lock()
			if live > peak {
				peak = live
			}
			last = live
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	client := f.Client("alice")
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "sleep", fx.BodySleep, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Burst of 4 tasks (~0.5s scaled each): pods must scale out.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID, Payload: fx.SleepArgs(50)})
			if err != nil {
				return
			}
			client.GetResult(ctx, id) //nolint:errcheck
		}()
	}
	wg.Wait()
	mu.Lock()
	gotPeak := peak
	mu.Unlock()
	if gotPeak < 2 {
		t.Fatalf("peak pods = %d, want >= 2 (scale out under burst)", gotPeak)
	}
	// After idle timeout, pods are reclaimed.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		l := last
		mu.Unlock()
		if l == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("pods never scaled back to zero (last=%d)", last)
}

func TestWaitForWorkers(t *testing.T) {
	f := newTestFabric(t)
	ep, err := f.AddEndpoint(EndpointOptions{
		Name: "wait-ep", Owner: "alice", Managers: 2, WorkersPerManager: 1,
		HeartbeatPeriod: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.WaitForWorkers(2, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ep.WaitForWorkers(99, 50*time.Millisecond); err == nil {
		t.Fatal("WaitForWorkers(99) succeeded")
	}
}

func TestFabricEndpointLookup(t *testing.T) {
	f := newTestFabric(t)
	ep, err := f.AddEndpoint(EndpointOptions{Name: "x", Owner: "alice", Managers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := f.Endpoint(ep.ID)
	if !ok || got != ep {
		t.Fatal("Endpoint lookup failed")
	}
	if _, ok := f.Endpoint("ghost"); ok {
		t.Fatal("ghost endpoint found")
	}
}

func TestPrivateEndpointRejectsStrangers(t *testing.T) {
	f := newTestFabric(t)
	ep, err := f.AddEndpoint(EndpointOptions{Name: "priv", Owner: "alice", Managers: 1})
	if err != nil {
		t.Fatal(err)
	}
	stranger := f.Client("mallory")
	ctx := context.Background()
	fnID, err := stranger.RegisterFunction(ctx, "echo", fx.BodyEcho, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := stranger.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID}); err == nil {
		t.Fatal("stranger dispatched to private endpoint")
	}
}
