package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"funcx/internal/core"
	"funcx/internal/fx"
	"funcx/internal/metrics"
	"funcx/internal/sdk"
	"funcx/internal/service"
	"funcx/internal/types"
)

func init() {
	register("fig7", Figure7)
	register("fig8", Figure8)
}

// faultStream drives a uniform-rate stream of 100 ms sleep functions
// at a fabric, injecting a failure and recovery at the given offsets,
// and returns the task-latency timeline (latency measured client side
// per task, stamped at submission time).
func faultStream(opts Options, managers int, duration, failAt, recoverAt time.Duration,
	rate int, fail, recover func(*core.Endpoint)) (*metrics.Series, error) {

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

	ep, err := fab.AddEndpoint(core.EndpointOptions{
		Name: "fault-ep", Owner: "experimenter",
		Managers: managers, WorkersPerManager: 4,
		PrewarmWorkers:  4,
		BatchDispatch:   true,
		HeartbeatPeriod: 50 * time.Millisecond,
		HeartbeatMisses: 3,
		Seed:            opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	client := fab.Client("experimenter")
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "sleep", fx.BodySleep, types.ContainerSpec{}, nil)
	if err != nil {
		return nil, err
	}

	series := metrics.NewSeries("task latency")
	origin := time.Now()
	var wg sync.WaitGroup
	interval := time.Second / time.Duration(rate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	failTimer := time.NewTimer(failAt)
	recoverTimer := time.NewTimer(recoverAt)
	defer failTimer.Stop()
	defer recoverTimer.Stop()
	end := time.NewTimer(duration)
	defer end.Stop()

	args := fx.SleepArgs(0.1) // 100 ms functions, real time

loop:
	for {
		select {
		case <-ticker.C:
			submitted := time.Now()
			wg.Add(1)
			go func() {
				defer wg.Done()
				id, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID, Payload: args})
				if err != nil {
					return
				}
				res, err := client.GetResult(ctx, id)
				if err != nil || res.Err != nil {
					return
				}
				series.RecordAt(submitted, time.Since(submitted).Seconds())
			}()
		case <-failTimer.C:
			fail(ep)
		case <-recoverTimer.C:
			recover(ep)
		case <-end.C:
			break loop
		}
	}
	// Collect stragglers (tasks queued during the outage).
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(duration):
	}
	_ = origin
	return series, nil
}

// renderTimeline buckets a latency series and prints mean/max latency
// per bucket, annotating the failure window.
func renderTimeline(opts Options, s *metrics.Series, bucket, failAt, recoverAt time.Duration, paperNote string) {
	points := s.Points()
	var maxT time.Duration
	for _, p := range points {
		if p.T > maxT {
			maxT = p.T
		}
	}
	tbl := metrics.NewTable("t (s)", "tasks", "mean latency (s)", "max latency (s)", "phase")
	for t := time.Duration(0); t <= maxT; t += bucket {
		mean := s.MeanIn(t, t+bucket)
		max := s.MaxIn(t, t+bucket)
		n := 0
		for _, p := range points {
			if p.T >= t && p.T < t+bucket {
				n++
			}
		}
		phase := "healthy"
		switch {
		case t+bucket > failAt && t < recoverAt:
			phase = "FAILED"
		case t >= recoverAt && t < recoverAt+2*bucket:
			phase = "recovering"
		}
		tbl.AddRow(fmt.Sprintf("%.1f", t.Seconds()), fmt.Sprint(n),
			fmt.Sprintf("%.3f", mean), fmt.Sprintf("%.3f", max), phase)
	}
	fmt.Fprint(opts.out(), tbl.Render())
	fmt.Fprintf(opts.out(), "paper: %s\n", paperNote)
}

// Figure7 reproduces Figure 7: two managers process a uniform stream
// of 100 ms functions at capacity; one manager is killed 2 s in and a
// replacement starts 2 s later. Task latency spikes while the agent's
// watchdog detects the loss and re-executes the manager's outstanding
// tasks, then returns to baseline.
func Figure7(opts Options) error {
	duration := 8 * time.Second
	failAt, recoverAt := 2*time.Second, 4*time.Second
	rate := 60
	if opts.Quick {
		duration = 4 * time.Second
		failAt, recoverAt = time.Second, 2*time.Second
		rate = 40
	}
	series, err := faultStream(opts, 2, duration, failAt, recoverAt, rate,
		func(ep *core.Endpoint) { ep.KillManager(0) }, //nolint:errcheck
		func(ep *core.Endpoint) { ep.AddManager() },   //nolint:errcheck
	)
	if err != nil {
		return err
	}
	renderTimeline(opts, series, 500*time.Millisecond, failAt, recoverAt,
		"latency increases immediately after the failure as tasks queue, then quickly recovers (Fig 7)")
	return nil
}

// Figure8 reproduces Figure 8: the endpoint agent disconnects from
// the funcX service mid-stream and reconnects later. Tasks submitted
// during the outage wait in the service-side reliable queue, so their
// latency grows linearly with outage time remaining; after
// re-registration the backlog drains and latency returns to baseline.
// (The paper fails at 43 s and recovers at 85 s; we compress the
// timeline 10x, which preserves the shape.)
func Figure8(opts Options) error {
	duration := 12 * time.Second
	failAt, recoverAt := 4300*time.Millisecond, 8500*time.Millisecond
	rate := 30
	if opts.Quick {
		duration = 5 * time.Second
		failAt, recoverAt = 1500*time.Millisecond, 3*time.Second
		rate = 20
	}
	series, err := faultStream(opts, 2, duration, failAt, recoverAt, rate,
		func(ep *core.Endpoint) { ep.Disconnect() },
		func(ep *core.Endpoint) { ep.Reconnect() }, //nolint:errcheck
	)
	if err != nil {
		return err
	}
	renderTimeline(opts, series, time.Second, failAt, recoverAt,
		"latency increases immediately following the failure and returns to previous levels after recovery (Fig 8)")
	return nil
}
