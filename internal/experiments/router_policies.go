package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"funcx/internal/core"
	"funcx/internal/fx"
	"funcx/internal/metrics"
	"funcx/internal/router"
	"funcx/internal/sdk"
	"funcx/internal/service"
	"funcx/internal/types"
)

func init() {
	register("router", RouterPolicies)
}

// RouterPolicies measures the federated task router (the step beyond
// the HPDC 2020 single-endpoint submit model, toward the TPDS 2022
// federated service): four heterogeneous endpoints form one group,
// a uniform stream of 10 ms tasks targets the *group*, and one
// endpoint is killed mid-run. For each placement policy the driver
// reports throughput, mean and tail latency, and how many queued
// tasks the failover path re-routed off the dead endpoint. Every
// task must complete despite the kill (at-least-once preserved).
func RouterPolicies(opts Options) error {
	tasks := 400
	if opts.Quick {
		tasks = 200
	}
	tbl := metrics.NewTable("policy", "tasks", "done", "wall (s)", "tasks/s",
		"mean (ms)", "p50 (ms)", "p95 (ms)", "p99 (ms)", "rerouted")
	for _, policy := range router.Policies() {
		r, err := routerPolicyRun(opts, string(policy), tasks)
		if err != nil {
			return fmt.Errorf("policy %s: %w", policy, err)
		}
		tbl.AddRow(string(policy), fmt.Sprint(tasks), fmt.Sprint(r.done),
			fmt.Sprintf("%.2f", r.wall.Seconds()),
			fmt.Sprintf("%.0f", float64(r.done)/r.wall.Seconds()),
			fmt.Sprintf("%.1f", float64(r.lat.Mean())/float64(time.Millisecond)),
			fmt.Sprintf("%.1f", float64(r.lat.Percentile(50))/float64(time.Millisecond)),
			fmt.Sprintf("%.1f", float64(r.lat.Percentile(95))/float64(time.Millisecond)),
			fmt.Sprintf("%.1f", float64(r.lat.Percentile(99))/float64(time.Millisecond)),
			fmt.Sprint(r.rerouted))
	}
	fmt.Fprint(opts.out(), tbl.Render())
	fmt.Fprintln(opts.out(), "4 heterogeneous endpoints (8/4/4/2 workers); endpoint 0 killed halfway; all tasks must complete on survivors")
	return nil
}

type routerRun struct {
	done     int
	wall     time.Duration
	lat      *metrics.Summary
	rerouted int64
}

// routerPolicyRun boots a fresh 4-endpoint fabric, streams tasks at
// the group under one policy, kills the largest endpoint halfway
// through the submissions, and waits for every result.
func routerPolicyRun(opts Options, policy string, tasks int) (*routerRun, error) {
	fab, err := core.NewFabric(core.FabricConfig{
		Service: service.Config{
			HeartbeatPeriod: 50 * time.Millisecond,
			HeartbeatMisses: 3,
		},
	})
	if err != nil {
		return nil, err
	}
	defer fab.Close()

	// Heterogeneous fleet: one big endpoint, two mid, one small.
	workers := []int{8, 4, 4, 2}
	eps := make([]*core.Endpoint, len(workers))
	for i, w := range workers {
		eps[i], err = fab.AddEndpoint(core.EndpointOptions{
			Name:  fmt.Sprintf("router-ep-%d", i),
			Owner: "experimenter", Managers: 1, WorkersPerManager: w,
			PrewarmWorkers: w, BatchDispatch: true,
			HeartbeatPeriod: 50 * time.Millisecond,
			Labels:          map[string]string{"size": fmt.Sprint(w)},
			Seed:            opts.Seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
	}
	group, err := fab.GroupOf("experimenter", "router-fleet", policy, eps...)
	if err != nil {
		return nil, err
	}
	client := fab.Client("experimenter")
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "sleep", fx.BodySleep, types.ContainerSpec{}, nil)
	if err != nil {
		return nil, err
	}

	lat := metrics.NewSummary()
	var mu sync.Mutex
	done := 0
	var wg sync.WaitGroup
	args := fx.SleepArgs(0.01) // 10 ms functions
	// Bound result waits so a lost task surfaces as the completion
	// check's error instead of hanging the experiment forever.
	gatherCtx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	start := time.Now()
	for i := 0; i < tasks; i++ {
		if i == tasks/2 {
			eps[0].Disconnect() // kill the biggest endpoint mid-run
		}
		submitted := time.Now()
		id, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Group: group.ID, Payload: args})
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := client.GetResult(gatherCtx, id)
			if err != nil || res.Err != nil {
				return
			}
			mu.Lock()
			lat.Add(time.Since(submitted))
			done++
			mu.Unlock()
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if done != tasks {
		return nil, fmt.Errorf("only %d/%d tasks completed after endpoint kill", done, tasks)
	}
	return &routerRun{done: done, wall: wall, lat: lat, rerouted: fab.Service.Rerouted()}, nil
}
