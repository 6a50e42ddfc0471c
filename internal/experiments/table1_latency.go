package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"funcx/internal/container"
	"funcx/internal/core"
	"funcx/internal/faas"
	"funcx/internal/fx"
	"funcx/internal/metrics"
	"funcx/internal/netlat"
	"funcx/internal/sdk"
	"funcx/internal/serial"
	"funcx/internal/service"
	"funcx/internal/types"
)

func init() {
	register("table1", Table1)
	register("fig4", Figure4)
}

// table1Setup boots the Table 1 fabric: service and endpoint "in
// us-east", the client on ANL Cooley 18.2 ms away, and Globus Auth
// introspection on the TS path. Returns the fabric, endpoint, client,
// and registered echo function.
func table1Setup(opts Options) (*core.Fabric, *core.Endpoint, *coreClient, error) {
	fab, err := core.NewFabric(core.FabricConfig{
		Service: service.Config{
			HeartbeatPeriod: 100 * time.Millisecond,
			ForwarderLat:    netlat.IntraAWS(opts.Seed + 11),
			AuthLat:         netlat.NewLink(8*time.Millisecond, time.Millisecond, opts.Seed+12),
		},
		ClientLat: netlat.CooleyToUSEast(opts.Seed + 13),
	})
	if err != nil {
		return nil, nil, nil, err
	}
	ep, err := fab.AddEndpoint(core.EndpointOptions{
		Name: "us-east-ec2", Owner: "experimenter",
		Managers: 1, WorkersPerManager: 2,
		PrewarmWorkers:  2, // warm path: containers already up
		HeartbeatPeriod: 100 * time.Millisecond,
		Seed:            opts.Seed,
	})
	if err != nil {
		fab.Close()
		return nil, nil, nil, err
	}
	client := fab.Client("experimenter")
	fnID, err := client.RegisterFunction(context.Background(), "echo", fx.BodyEcho, types.ContainerSpec{}, nil)
	if err != nil {
		fab.Close()
		return nil, nil, nil, err
	}
	return fab, ep, &coreClient{Client: client, fnID: fnID, epID: ep.ID}, nil
}

// coreClient bundles the SDK client with the experiment's function and
// endpoint ids.
type coreClient struct {
	*sdk.Client
	fnID types.FunctionID
	epID types.EndpointID
}

// roundTrip submits one echo and waits for the result, returning the
// client-observed round-trip time and the server-side timing.
func (c *coreClient) roundTrip(ctx context.Context, payload []byte) (time.Duration, types.Timing, error) {
	start := time.Now()
	id, _, err := c.Submit(ctx, sdk.SubmitSpec{Function: c.fnID, Endpoint: c.epID, Payload: payload})
	if err != nil {
		return 0, types.Timing{}, err
	}
	res, err := c.GetResult(ctx, id)
	if err != nil {
		return 0, types.Timing{}, err
	}
	if res.Err != nil {
		return 0, types.Timing{}, res.Err
	}
	return time.Since(start), res.Timing, nil
}

// funcxColdModel is the Table 1 cold-start distribution for the funcX
// row: the paper attributes the 1497 ms cold total almost entirely to
// container startup (total minus warm path ≈ 1386 ms; between the EC2
// Singularity and Docker rows of Table 2).
var funcxColdModel = container.Model{
	System: "ec2", Tech: types.ContainerDocker,
	Min: 1200 * time.Millisecond, Max: 1600 * time.Millisecond,
	Mean: 1386 * time.Millisecond, Sigma: 0.05,
}

// Table1 reproduces Table 1: warm and cold round-trip latency of the
// same "hello-world" echo function on Azure Functions, Google Cloud
// Functions, Amazon Lambda (published-behaviour models), and funcX
// (measured end-to-end on the real fabric with WAN and auth latency
// injected). Cold funcX invocations add a sampled container cold
// start, per the paper's attribution.
func Table1(opts Options) error {
	// Full scale: 500 warm (the paper used 10 000; the mean converges
	// well before 500 given each round trip really sleeps its WAN and
	// auth latency) and the paper's 50 cold.
	warmN, coldN := 500, 50
	if opts.Quick {
		warmN, coldN = 100, 20
	}

	tbl := metrics.NewTable("platform", "", "overhead (ms)", "function (ms)", "total (ms)", "std dev (ms)", "paper total (ms)")
	paper := map[string][2]string{
		"Azure":  {"130.0", "1359.7"},
		"Google": {"85.6", "222.8"},
		"Amazon": {"100.3", "468.8"},
		"funcX":  {"111.3", "1497.2"},
	}

	// Commercial baselines.
	now := time.Now()
	for _, p := range faas.All() {
		p.Seed(opts.Seed + int64(len(p.Name)))
		warm := metrics.NewSummary()
		warmFn := metrics.NewSummary()
		p.Invoke(now, false) // prime: the first invocation is cold
		for i := 0; i < warmN; i++ {
			inv := p.Invoke(now, false)
			now = now.Add(time.Second)
			warm.Add(inv.Total())
			warmFn.Add(inv.FuncTime)
		}
		cold := metrics.NewSummary()
		coldFn := metrics.NewSummary()
		for i := 0; i < coldN; i++ {
			inv := p.Invoke(now, true)
			now = now.Add(15 * time.Minute)
			cold.Add(inv.Total())
			coldFn.Add(inv.FuncTime)
		}
		tbl.AddRow(p.Name, "warm",
			metrics.FormatMS(warm.Mean()-warmFn.Mean()), metrics.FormatMS(warmFn.Mean()),
			metrics.FormatMS(warm.Mean()), metrics.FormatMS(warm.Std()), paper[p.Name][0])
		tbl.AddRow(p.Name, "cold",
			metrics.FormatMS(cold.Mean()-coldFn.Mean()), metrics.FormatMS(coldFn.Mean()),
			metrics.FormatMS(cold.Mean()), metrics.FormatMS(cold.Std()), paper[p.Name][1])
	}

	// funcX: measured on the real fabric.
	fab, _, client, err := table1Setup(opts)
	if err != nil {
		return err
	}
	defer fab.Close()
	ctx := context.Background()
	payload, err := serial.Serialize("hello-world")
	if err != nil {
		return err
	}
	// Warm the path (containers deploy, HTTP connections establish).
	for i := 0; i < 5; i++ {
		if _, _, err := client.roundTrip(ctx, payload); err != nil {
			return err
		}
	}
	warm := metrics.NewSummary()
	warmFn := metrics.NewSummary()
	for i := 0; i < warmN; i++ {
		total, timing, err := client.roundTrip(ctx, payload)
		if err != nil {
			return err
		}
		warm.Add(total)
		warmFn.Add(timing.TW)
	}
	// Cold: warm-path measurement plus a sampled container cold start
	// (the endpoint restart of the paper's methodology).
	rng := rand.New(rand.NewSource(opts.Seed + 14))
	cold := metrics.NewSummary()
	coldFn := metrics.NewSummary()
	for i := 0; i < coldN; i++ {
		total, timing, err := client.roundTrip(ctx, payload)
		if err != nil {
			return err
		}
		cold.Add(total + funcxColdModel.Sample(rng))
		coldFn.Add(timing.TW)
	}
	tbl.AddRow("funcX", "warm",
		metrics.FormatMS(warm.Mean()-warmFn.Mean()), metrics.FormatMS(warmFn.Mean()),
		metrics.FormatMS(warm.Mean()), metrics.FormatMS(warm.Std()), paper["funcX"][0])
	tbl.AddRow("funcX", "cold",
		metrics.FormatMS(cold.Mean()-coldFn.Mean()), metrics.FormatMS(coldFn.Mean()),
		metrics.FormatMS(cold.Mean()), metrics.FormatMS(cold.Std()), paper["funcX"][1])

	fmt.Fprint(opts.out(), tbl.Render())
	return nil
}

// Figure4 reproduces Figure 4: the per-hop latency breakdown of a warm
// funcX invocation — TS (web service: auth + store + enqueue), TF
// (forwarder), TE (endpoint internal queuing/dispatch), TW (execution).
func Figure4(opts Options) error {
	n := 300
	if opts.Quick {
		n = 100
	}
	fab, _, client, err := table1Setup(opts)
	if err != nil {
		return err
	}
	defer fab.Close()
	ctx := context.Background()
	payload, err := serial.Serialize("hello-world")
	if err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		if _, _, err := client.roundTrip(ctx, payload); err != nil {
			return err
		}
	}
	var sum types.Timing
	total := metrics.NewSummary()
	for i := 0; i < n; i++ {
		rt, timing, err := client.roundTrip(ctx, payload)
		if err != nil {
			return err
		}
		sum = sum.Add(timing)
		total.Add(rt)
	}
	avg := sum.Scale(n)
	tbl := metrics.NewTable("component", "mean (ms)", "paper observation")
	tbl.AddRow("ts (web service)", metrics.FormatMS(avg.TS), "largest share: authentication dominates")
	tbl.AddRow("tf (forwarder)", metrics.FormatMS(avg.TF), "small: intra-AWS hops <1ms + queue ops")
	tbl.AddRow("te (endpoint)", metrics.FormatMS(avg.TE), "second largest: internal queuing/dispatch")
	tbl.AddRow("tw (execution)", metrics.FormatMS(avg.TW), "fast relative to system latency")
	tbl.AddRow("client round trip", metrics.FormatMS(total.Mean()), "111 ms warm total (Table 1)")
	fmt.Fprint(opts.out(), tbl.Render())
	return nil
}
