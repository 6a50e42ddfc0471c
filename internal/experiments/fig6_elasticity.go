package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"funcx/internal/core"
	"funcx/internal/fx"
	"funcx/internal/metrics"
	"funcx/internal/provider"
	"funcx/internal/sdk"
	"funcx/internal/service"
	"funcx/internal/types"
)

func init() { register("fig6", Figure6) }

// Figure6 reproduces Figure 6: a funcX endpoint on a Kubernetes
// cluster elastically scales pods in response to function load. Three
// sleep functions (1 s, 10 s, 20 s) each run in their own container
// with 0–10 pods; every 120 s the experiment submits one 1 s, five
// 10 s, and twenty 20 s invocations. Pods scale up on arrival and are
// reclaimed when functions complete.
//
// The reproduction compresses time 60x (the paper's 120 s burst period
// becomes 2 s; sleeps scale identically), which preserves the
// pods-track-load shape while keeping the experiment wall-clock short.
func Figure6(opts Options) error {
	const timeScale = 1.0 / 60
	bursts := 3
	if opts.Quick {
		bursts = 2
	}
	period := time.Duration(120 * timeScale * float64(time.Second)) // 2 s

	fab, err := core.NewFabric(core.FabricConfig{
		Service: service.Config{HeartbeatPeriod: 50 * time.Millisecond},
	})
	if err != nil {
		return err
	}
	defer fab.Close()
	client := fab.Client("experimenter")
	ctx := context.Background()

	// One endpoint per function, mirroring "each in its own
	// container" with an independent 0–10 pod budget.
	type fnDef struct {
		name    string
		seconds float64
		count   int
	}
	defs := []fnDef{{"sleep-1s", 1, 1}, {"sleep-10s", 10, 5}, {"sleep-20s", 20, 20}}

	type deployment struct {
		def  fnDef
		ep   *core.Endpoint
		fnID types.FunctionID
		pods *metrics.Series
		load *metrics.Series
		mu   sync.Mutex
		peak int
	}
	var deps []*deployment
	origin := time.Now()
	for i, def := range defs {
		ep, err := fab.AddEndpoint(core.EndpointOptions{
			Name: def.name, Owner: "experimenter",
			Managers: 0, WorkersPerManager: 1, // one worker per pod
			SleepScale:      timeScale,
			BatchDispatch:   true,
			HeartbeatPeriod: 25 * time.Millisecond,
			Seed:            opts.Seed + int64(i),
		})
		if err != nil {
			return err
		}
		d := &deployment{
			def:  def,
			ep:   ep,
			pods: metrics.NewSeriesAt(def.name+" pods", origin),
			load: metrics.NewSeriesAt(def.name+" fns", origin),
		}
		err = ep.EnableElasticity(core.ElasticOptions{
			NewProvider: func(hooks provider.Hooks) provider.Provider {
				return provider.NewK8sSim(10, timeScale, opts.Seed+int64(i), hooks)
			},
			Policy: provider.ScalingPolicy{
				MinBlocks: 0, MaxBlocks: 10, TasksPerNode: 1,
				IdleTimeout:    333 * time.Millisecond, // paper's idle reclaim, time-compressed
				Aggressiveness: 1.0,
			},
			Interval: 20 * time.Millisecond,
			OnScale: func(live, pending, queued, running int) {
				d.pods.Record(float64(live))
				d.load.Record(float64(queued + running))
				d.mu.Lock()
				if live > d.peak {
					d.peak = live
				}
				d.mu.Unlock()
			},
		})
		if err != nil {
			return err
		}
		fnID, err := client.RegisterFunction(ctx, def.name, fx.BodySleep, types.ContainerSpec{}, nil)
		if err != nil {
			return err
		}
		d.fnID = fnID
		deps = append(deps, d)
	}

	// Drive the bursts and wait for completion.
	var wg sync.WaitGroup
	for b := 0; b < bursts; b++ {
		for _, d := range deps {
			for i := 0; i < d.def.count; i++ {
				wg.Add(1)
				go func(d *deployment) {
					defer wg.Done()
					id, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: d.fnID, Endpoint: d.ep.ID, Payload: fx.SleepArgs(d.def.seconds)})
					if err != nil {
						return
					}
					client.GetResult(ctx, id) //nolint:errcheck
				}(d)
			}
		}
		time.Sleep(period)
	}
	wg.Wait()
	// Let idle timeouts reclaim pods.
	time.Sleep(time.Duration(float64(period) * 0.5))

	// Render: pods per function over time buckets.
	bucket := period / 4
	total := time.Duration(bursts)*period + period/2
	tbl := metrics.NewTable("t (paper s)", "1s fns pods", "10s fns pods", "20s fns pods")
	for t := time.Duration(0); t < total; t += bucket {
		row := []string{fmt.Sprintf("%.0f", t.Seconds()/timeScale)}
		for _, d := range deps {
			row = append(row, fmt.Sprintf("%.0f", d.pods.MaxIn(t, t+bucket)))
		}
		tbl.AddRow(row...)
	}
	fmt.Fprint(opts.out(), tbl.Render())
	for _, d := range deps {
		d.mu.Lock()
		peak := d.peak
		d.mu.Unlock()
		fmt.Fprintf(opts.out(), "%s: peak pods %d (paper: %d, cap 10); pods released after load\n",
			d.def.name, peak, min(d.def.count, 10))
	}
	return nil
}
