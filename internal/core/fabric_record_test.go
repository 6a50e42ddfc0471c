package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"funcx/internal/api"
	"funcx/internal/fx"
	"funcx/internal/sdk"
	"funcx/internal/serial"
	"funcx/internal/service"
	"funcx/internal/types"
)

// TestTaskRecordLivesAsLongAsItsResult: the service holds one record
// per task, and it ends with the result's purge. With no ResultTTL,
// retrieving every result leaves zero records behind; with one, the
// records survive the read and go at the next expiry pass.
func TestTaskRecordLivesAsLongAsItsResult(t *testing.T) {
	const n = 200
	for _, ttl := range []time.Duration{0, 300 * time.Millisecond} {
		t.Run(fmt.Sprintf("ttl=%s", ttl), func(t *testing.T) {
			f, err := NewFabric(FabricConfig{Service: service.Config{
				HeartbeatPeriod: 50 * time.Millisecond, ResultTTL: ttl,
			}})
			if err != nil {
				t.Fatalf("NewFabric: %v", err)
			}
			t.Cleanup(f.Close)
			ep, err := f.AddEndpoint(EndpointOptions{
				Name: "ep", Owner: "alice", Managers: 1, WorkersPerManager: 4, PrewarmWorkers: 4,
			})
			if err != nil {
				t.Fatalf("AddEndpoint: %v", err)
			}
			client := f.Client("alice")
			defer client.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			fnID, err := client.RegisterFunction(ctx, "echo", fx.BodyEcho, types.ContainerSpec{}, nil)
			if err != nil {
				t.Fatalf("RegisterFunction: %v", err)
			}
			reqs := make([]api.SubmitRequest, n)
			for i := range reqs {
				payload, _ := serial.Serialize(i)
				reqs[i] = api.SubmitRequest{FunctionID: fnID, EndpointID: ep.ID, Payload: payload}
			}
			ids, err := client.RunBatch(ctx, reqs)
			if err != nil {
				t.Fatalf("RunBatch: %v", err)
			}
			results, err := client.GetResults(ctx, ids)
			if err != nil {
				t.Fatalf("GetResults: %v", err)
			}
			for _, res := range results {
				if res.Err != nil {
					t.Fatalf("task %s: %v", res.TaskID, res.Err)
				}
			}
			if ttl == 0 {
				if got := f.Service.TaskRecords(); got != 0 {
					t.Fatalf("%d task records after every result was read, want 0", got)
				}
				return
			}
			if got := f.Service.TaskRecords(); got != n {
				t.Fatalf("%d task records right after the read, want all %d retained for the TTL", got, n)
			}
			deadline := time.Now().Add(ttl + 3*time.Second)
			for f.Service.TaskRecords() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%d task records still held past the TTL and an expiry pass", f.Service.TaskRecords())
				}
				time.Sleep(50 * time.Millisecond)
			}
			if _, err := f.Service.Status(ids[0]); err == nil {
				t.Fatal("status of an expired task still answers")
			}
		})
	}
}

// TestDrainImportEntersQueued: a drained shard ships its leased tasks
// after requeueing them, so the importer must take them in as queued —
// through the ordinary queued transition, publishing that event —
// whatever step (here: dispatched) they had reached on the origin.
func TestDrainImportEntersQueued(t *testing.T) {
	sf, err := NewShardedFabric(ShardedFabricConfig{
		Shards: 2,
		Service: service.Config{
			HeartbeatPeriod: 50 * time.Millisecond,
			// Long enough that no lease expires mid-test.
			DispatchLease: time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	origin := sf.Shard(0)
	// No managers: tasks dispatch to the agent and stay there.
	ep, err := origin.AddEndpoint(EndpointOptions{
		Name: "wedged", Owner: "tester", Managers: 0, WorkersPerManager: 1,
		HeartbeatPeriod: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := origin.Client("tester")
	defer client.Close()
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "echo", fx.BodyEcho, types.ContainerSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]types.TaskID, 3)
	for i := range ids {
		if ids[i], _, err = client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range ids {
		for {
			st, _ := origin.Service.Status(id)
			if st == types.TaskDispatched {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("task %s never dispatched on the origin (status %q)", id, st)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	importer := sf.Shard(1)
	sub := importer.Service.Events.Subscribe("tester")
	defer sub.Cancel()
	report, err := sf.DrainShard(0)
	if err != nil {
		t.Fatal(err)
	}
	if report.Tasks != len(ids) {
		t.Fatalf("drain moved %d tasks, want %d", report.Tasks, len(ids))
	}
	first := make(map[types.TaskID]types.TaskEvent)
	timeout := time.After(5 * time.Second)
	for len(first) < len(ids) {
		select {
		case ev := <-sub.C:
			if _, seen := first[ev.TaskID]; !seen {
				first[ev.TaskID] = ev
			}
		case <-timeout:
			t.Fatalf("importer published events for %d of %d tasks", len(first), len(ids))
		}
	}
	for _, id := range ids {
		if ev := first[id]; ev.Status != types.TaskQueued || ev.EndpointID != ep.ID {
			t.Fatalf("importer's first event for %s = %s on %s, want queued on %s", id, ev.Status, ev.EndpointID, ep.ID)
		}
		if _, err := importer.Service.Status(id); err != nil {
			t.Fatalf("importer has no record of %s: %v", id, err)
		}
	}
}
