package experiments

import (
	"context"
	"fmt"
	"time"

	"funcx/internal/api"
	"funcx/internal/core"
	"funcx/internal/fx"
	"funcx/internal/metrics"
	"funcx/internal/sdk"
	"funcx/internal/service"
	"funcx/internal/types"
)

func init() { register("latency", TraceLatency) }

// TraceLatency exercises the end-to-end tracing pipeline: it runs
// sleep tasks on a local fabric, pulls each task's recorded timeline
// from GET /v1/tasks/{id}/trace, and prints the paper's §5.1-style
// per-stage latency decomposition (submit, queue, dispatch, execute,
// return, publish) folded from the service's own trace collector
// rather than client-side timers.
//
// Two invariants are enforced, and their violation fails the
// experiment (CI runs this):
//
//   - the six stages partition the service-side total exactly;
//   - the mean service-side total reconciles with the mean
//     client-observed round trip within 10% (the client adds only
//     local HTTP overhead on an in-process fabric).
func TraceLatency(opts Options) error {
	n, sleep := 40, 50*time.Millisecond
	if opts.Quick {
		n, sleep = 15, 30*time.Millisecond
	}

	// No injected WAN/auth latency: the client-observed round trip
	// must be attributable to the traced stages for the
	// reconciliation check to be meaningful.
	fab, err := core.NewFabric(core.FabricConfig{
		Service: service.Config{HeartbeatPeriod: 50 * time.Millisecond},
	})
	if err != nil {
		return err
	}
	defer fab.Close()
	ep, err := fab.AddEndpoint(core.EndpointOptions{
		Name: "local", Owner: "experimenter",
		Managers: 1, WorkersPerManager: 2, PrewarmWorkers: 2,
		HeartbeatPeriod: 50 * time.Millisecond,
		Seed:            opts.Seed,
	})
	if err != nil {
		return err
	}
	client := fab.Client("experimenter")
	ctx := context.Background()
	fnID, err := client.RegisterFunction(ctx, "fsleep", fx.BodySleep, types.ContainerSpec{}, nil)
	if err != nil {
		return err
	}
	payload := fx.SleepArgs(sleep.Seconds())

	// Warm the path so container deploys don't skew the decomposition.
	for i := 0; i < 3; i++ {
		id, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID, Payload: payload})
		if err != nil {
			return err
		}
		if _, err := client.GetResult(ctx, id); err != nil {
			return err
		}
	}

	stages := []string{"submit", "queue", "dispatch", "execute", "return", "publish"}
	sums := make(map[string]*metrics.Summary, len(stages))
	for _, s := range stages {
		sums[s] = metrics.NewSummary()
	}
	totals := metrics.NewSummary()
	observed := metrics.NewSummary()
	remoteExec := metrics.NewSummary()

	for i := 0; i < n; i++ {
		begin := time.Now()
		id, _, err := client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID, Payload: payload})
		if err != nil {
			return err
		}
		if _, err := client.GetResult(ctx, id); err != nil {
			return err
		}
		observed.Add(time.Since(begin))

		tr, err := finishedTrace(ctx, client, id)
		if err != nil {
			return err
		}
		d := tr.Decomposition
		sums["submit"].Add(time.Duration(d.SubmitNanos))
		sums["queue"].Add(time.Duration(d.QueueNanos))
		sums["dispatch"].Add(time.Duration(d.DispatchNanos))
		sums["execute"].Add(time.Duration(d.ExecuteNanos))
		sums["return"].Add(time.Duration(d.ReturnNanos))
		sums["publish"].Add(time.Duration(d.PublishNanos))
		totals.Add(time.Duration(d.TotalNanos))
		if tr.Remote != nil {
			remoteExec.Add(time.Duration(tr.Remote.ExecNanos))
		}

		// Exact partition: the stages must sum to the total.
		stageSum := d.SubmitNanos + d.QueueNanos + d.DispatchNanos +
			d.ExecuteNanos + d.ReturnNanos + d.PublishNanos
		if stageSum != d.TotalNanos {
			return fmt.Errorf("latency: task %s stages sum to %d ns but total is %d ns", id, stageSum, d.TotalNanos)
		}
	}

	tbl := metrics.NewTable("stage", "mean (ms)", "share", "meaning")
	meaning := map[string]string{
		"submit":   "auth + store + route (TS analogue)",
		"queue":    "waiting for forwarder dispatch",
		"dispatch": "in flight / queued at the endpoint",
		"execute":  "worker run time (endpoint clock)",
		"return":   "result's trip back to the service",
		"publish":  "store + terminal event fan-out",
	}
	for _, s := range stages {
		share := 0.0
		if totals.Mean() > 0 {
			share = float64(sums[s].Mean()) / float64(totals.Mean()) * 100
		}
		tbl.AddRow(s, metrics.FormatMS(sums[s].Mean()), fmt.Sprintf("%.1f%%", share), meaning[s])
	}
	tbl.AddRow("service total", metrics.FormatMS(totals.Mean()), "100%", "submit arrival -> terminal publish")
	tbl.AddRow("client observed", metrics.FormatMS(observed.Mean()), "", "submit call -> result in hand")
	tbl.AddRow("worker-reported exec", metrics.FormatMS(remoteExec.Mean()), "", "endpoint-side delta (skew-free)")
	fmt.Fprint(opts.out(), tbl.Render())

	// Reconciliation: the traced total must explain the client's
	// observation within 10%.
	gap := observed.Mean() - totals.Mean()
	if gap < 0 {
		gap = -gap
	}
	frac := float64(gap) / float64(observed.Mean())
	fmt.Fprintf(opts.out(), "reconciliation: |observed - traced| = %s (%.1f%% of observed, budget 10%%)\n",
		metrics.FormatMS(gap), frac*100)
	if frac > 0.10 {
		return fmt.Errorf("latency: traced total %v does not reconcile with observed %v (%.1f%% > 10%%)",
			totals.Mean(), observed.Mean(), frac*100)
	}
	return nil
}

// finishedTrace fetches a task's trace, retrying briefly until the
// timeline is marked done (result retrieval can race the terminal
// publish by a scheduler tick).
func finishedTrace(ctx context.Context, client *sdk.Client, id types.TaskID) (*api.TaskTraceResponse, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		tr, err := client.TaskTrace(ctx, id)
		if err != nil {
			return nil, err
		}
		if tr.Done && tr.Decomposition != nil {
			return tr, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("latency: task %s trace never finished (done=%v)", id, tr.Done)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
