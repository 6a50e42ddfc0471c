package experiments

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"funcx/internal/core"
	"funcx/internal/fx"
	"funcx/internal/metrics"
	"funcx/internal/sdk"
	"funcx/internal/service"
	"funcx/internal/shard"
	"funcx/internal/types"
)

func init() { register("durability", Durability) }

// Durability measures the durable control plane: per-shard WAL +
// snapshot persistence (internal/wal under internal/store) with crash
// recovery and planned shard departure.
//
// Part 1 (crash recovery): a 3-shard fabric journals every shard to
// disk. A backlog of sleep tasks builds on one shard's group; the
// shard is killed cold mid-execution — queued, in-flight and finished
// task records all on disk — and restarted on the same address. The
// restart must recover the shard's registry and task records from
// WAL + snapshot and rebuild its queues from them (no re-registration
// of anything), agents re-attach with reissued credentials, and every
// task submitted before the kill must resolve: zero loss. A function
// registered on the survivors while the shard was down must also be
// callable on the recovered shard (anti-entropy pull at boot).
//
// Part 2 (planned departure): a second shard, again holding a queued
// backlog, is drained: its endpoints, group, and queued tasks hand
// off to the ring's next owners, its agents re-home, and the drained
// shard degrades to a pure front door. Zero loss again, and
// submissions through any front door still reach the moved group.
//
// Part 3 (cost of durability): raw submit throughput of one service
// instance with the WAL on versus off — the price of fsync-backed
// acceptance on the hot path, kept low by group commit.
func Durability(opts Options) error {
	backlog, overheadTasks := 60, 576
	if opts.Quick {
		backlog, overheadTasks = 28, 192
	}

	dataDir, err := os.MkdirTemp("", "funcx-durability-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)

	rec, err := durabilityRecovery(opts, dataDir, backlog)
	if err != nil {
		return err
	}
	tbl := metrics.NewTable("phase", "tasks", "completed pre-kill", "recovered", "lost", "recovery (ms)")
	tbl.AddRow("kill+restart", fmt.Sprint(rec.tasks), fmt.Sprint(rec.preKill),
		fmt.Sprint(rec.tasks-rec.preKill), fmt.Sprint(rec.lost),
		fmt.Sprintf("%.0f", rec.recovery.Seconds()*1000))
	tbl.AddRow("drain+handoff", fmt.Sprint(rec.drainTasks), "-", fmt.Sprint(rec.drainMoved),
		fmt.Sprint(rec.drainLost), "-")
	fmt.Fprint(opts.out(), tbl.Render())
	fmt.Fprintf(opts.out(), "cold restart replayed %d WAL records (snapshot %d bytes, %d torn) and recovered registry, task records, and results, rebuilding queues from the records; zero task loss\n",
		rec.walRecords, rec.walSnapshot, rec.walTorn)
	fmt.Fprintf(opts.out(), "drain handed %d endpoints / %d groups / %d queued tasks to %d destination shard(s); zero task loss\n",
		rec.drainEndpoints, rec.drainGroups, rec.drainMovedTasks, rec.drainDests)

	walOff, err := durabilityThroughput(opts, "", overheadTasks)
	if err != nil {
		return fmt.Errorf("throughput wal-off: %w", err)
	}
	walOn, err := durabilityThroughput(opts, dataDir+"/tput", overheadTasks)
	if err != nil {
		return fmt.Errorf("throughput wal-on: %w", err)
	}
	ratio := walOn.rate / walOff.rate
	over := metrics.NewTable("config", "tasks", "wall (s)", "submits/s", "relative")
	over.AddRow("in-memory", fmt.Sprint(overheadTasks), fmt.Sprintf("%.2f", walOff.wall.Seconds()),
		fmt.Sprintf("%.0f", walOff.rate), "1.00x")
	over.AddRow("WAL + snapshots", fmt.Sprint(overheadTasks), fmt.Sprintf("%.2f", walOn.wall.Seconds()),
		fmt.Sprintf("%.0f", walOn.rate), fmt.Sprintf("%.2fx", ratio))
	fmt.Fprint(opts.out(), over.Render())
	fmt.Fprintln(opts.out(), "group-commit fsync (one sync per interval, not per append) keeps durable submit throughput near in-memory")

	if !opts.Quick && ratio < 0.5 {
		return fmt.Errorf("durability: WAL-on submit throughput only %.2fx in-memory", ratio)
	}
	return nil
}

// --- part 1+2: crash recovery and drain ---

type durabilityRun struct {
	tasks, preKill, lost int
	recovery             time.Duration
	walRecords, walTorn  uint64
	walSnapshot          uint64

	drainTasks, drainMoved, drainLost       int
	drainEndpoints, drainGroups, drainDests int
	drainMovedTasks                         int
}

// durabilityProvision boots two endpoints and a group on shard i,
// returning the group plus the endpoint ids and options needed to
// re-attach agents after a recovery.
func durabilityProvision(sf *core.ShardedFabric, i int, seed int64) (*types.EndpointGroup, []types.EndpointID, []core.EndpointOptions, error) {
	fab := sf.Shard(i)
	ids := make([]types.EndpointID, 2)
	allOpts := make([]core.EndpointOptions, 2)
	eps := make([]*core.Endpoint, 2)
	for j := range eps {
		o := core.EndpointOptions{
			Name: fmt.Sprintf("dur%d-ep%d", i, j), Owner: "experimenter",
			Managers: 1, WorkersPerManager: 2, PrewarmWorkers: 2,
			BatchDispatch:   true,
			HeartbeatPeriod: 50 * time.Millisecond,
			Seed:            seed + int64(i*10+j),
		}
		ep, err := fab.AddEndpoint(o)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := ep.WaitForWorkers(1, 5*time.Second); err != nil {
			return nil, nil, nil, err
		}
		eps[j] = ep
		ids[j] = ep.ID
		allOpts[j] = o
	}
	g, err := fab.GroupOf("experimenter", fmt.Sprintf("dur%d-fleet", i), "least-outstanding", eps...)
	return g, ids, allOpts, err
}

func durabilityRecovery(opts Options, dataDir string, backlog int) (*durabilityRun, error) {
	sf, err := core.NewShardedFabric(core.ShardedFabricConfig{
		Shards:  3,
		Service: service.Config{HeartbeatPeriod: 50 * time.Millisecond},
		Ring:    shard.Config{Seed: opts.Seed},
		DataDir: dataDir,
	})
	if err != nil {
		return nil, err
	}
	defer sf.Close()

	type island struct {
		group *types.EndpointGroup
		ids   []types.EndpointID
		opts  []core.EndpointOptions
	}
	islands := make([]island, 3)
	for i := range islands {
		g, ids, epOpts, err := durabilityProvision(sf, i, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("provision shard %d: %w", i, err)
		}
		islands[i] = island{group: g, ids: ids, opts: epOpts}
	}
	ctx := context.Background()
	reg := sf.ClientVia(0, "experimenter")
	defer reg.Close()
	sleepFn, err := reg.RegisterFunction(ctx, "sleep", fx.BodySleep, types.ContainerSpec{}, nil)
	if err != nil {
		return nil, err
	}

	// Build a backlog of 80 ms sleeps on the victim shard's group,
	// submitted through a non-owner front door (the proxied path is the
	// one the journal must make durable).
	victim := sf.OwnerIndex(shard.GroupKey(islands[0].group.ID))
	front := (victim + 1) % sf.N()
	client := sf.ClientVia(front, "experimenter")
	defer client.Close()
	run := &durabilityRun{tasks: backlog}
	ids := make([]types.TaskID, 0, backlog)
	for t := 0; t < backlog; t++ {
		id, _, err := client.Submit(ctx, sdk.SubmitSpec{
			Function: sleepFn, Group: islands[0].group.ID, Payload: fx.SleepArgs(0.08),
		})
		if err != nil {
			return nil, fmt.Errorf("backlog submit %d: %w", t, err)
		}
		ids = append(ids, id)
	}

	// Let part of the backlog complete — the journal then holds stored
	// results AND queued tasks AND in-flight tasks at the kill.
	completedOnVictim := func() int {
		fab := sf.Shard(victim)
		if fab == nil {
			return 0
		}
		total := 0
		for _, ep := range fab.Service.StatsSnapshot().Endpoints {
			total += int(ep.Completed)
		}
		return total
	}
	deadline := time.Now().Add(10 * time.Second)
	for completedOnVictim() < backlog/6 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	run.preKill = completedOnVictim()
	if run.preKill == 0 {
		return nil, fmt.Errorf("no tasks completed before the kill; backlog never started")
	}
	if run.preKill >= backlog {
		return nil, fmt.Errorf("entire backlog completed before the kill; nothing to recover")
	}

	// Cold kill mid-execution.
	if err := sf.KillShard(victim); err != nil {
		return nil, err
	}
	// While the shard is down, register a second function via a
	// survivor: the write-time broadcast cannot reach the dead shard,
	// so only the anti-entropy pull at recovered boot can deliver it.
	echoFn, err := sf.ClientVia(front, "experimenter").RegisterFunction(ctx, "echo", fx.BodyEcho, types.ContainerSpec{}, nil)
	if err != nil {
		return nil, err
	}

	// Timed cold restart: WAL + snapshot replay, registry/queue/lease
	// recovery, and the peer function pull all happen inside.
	start := time.Now()
	fab, err := sf.RestartShard(victim)
	if err != nil {
		return nil, fmt.Errorf("restart shard %d: %w", victim, err)
	}
	run.recovery = time.Since(start)
	st := fab.Service.StatsSnapshot()
	if st.WAL == nil || !st.WAL.Recovered {
		return nil, fmt.Errorf("restarted shard did not recover from its journal")
	}
	run.walRecords = st.WAL.RecoveredRecords
	run.walSnapshot = st.WAL.RecoveredSnapshot
	run.walTorn = st.WAL.TornRecords

	// The registry must have survived: re-attach agents to the
	// recovered endpoint records — no re-registration of endpoints,
	// groups, or functions.
	for j, epID := range islands[0].ids {
		if _, err := fab.AttachEndpoint(epID, islands[0].opts[j]); err != nil {
			return nil, fmt.Errorf("re-attach agent %s: %w", epID, err)
		}
	}

	// Every pre-kill task must resolve: results stored before the kill
	// were journaled; queued and in-flight tasks re-deliver to the
	// re-attached agents.
	gctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	results, err := client.GetResults(gctx, ids)
	if err != nil {
		return nil, fmt.Errorf("gathering across the restart: %w", err)
	}
	for _, res := range results {
		if res == nil || res.Err != nil {
			run.lost++
		}
	}
	if run.lost != 0 {
		return run, fmt.Errorf("durability: %d/%d tasks lost across kill+restart", run.lost, backlog)
	}

	// Post-recovery futures: the pre-kill function AND the function
	// registered while the shard was down (anti-entropy) must both be
	// callable through the recovered shard with no re-registration.
	recClient := sf.ClientVia(victim, "experimenter")
	defer recClient.Close()
	for _, fn := range []types.FunctionID{sleepFn, echoFn} {
		fut, err := recClient.SubmitFuture(ctx, sdk.SubmitSpec{
			Function: fn, Group: islands[0].group.ID, Payload: fx.SleepArgs(0.01),
		})
		if err != nil {
			return run, fmt.Errorf("post-recovery submit of %s: %w", fn, err)
		}
		if res, err := fut.Get(gctx); err != nil || res.Err != nil {
			return run, fmt.Errorf("post-recovery future for %s did not resolve: %v / %v", fn, err, res)
		}
	}

	// --- part 2: planned departure of a second shard ---
	leaver := sf.OwnerIndex(shard.GroupKey(islands[1].group.ID))
	drainIDs := make([]types.TaskID, 0, backlog)
	for t := 0; t < backlog; t++ {
		id, _, err := client.Submit(ctx, sdk.SubmitSpec{
			Function: sleepFn, Group: islands[1].group.ID, Payload: fx.SleepArgs(0.08),
		})
		if err != nil {
			return run, fmt.Errorf("drain backlog submit %d: %w", t, err)
		}
		drainIDs = append(drainIDs, id)
	}
	run.drainTasks = len(drainIDs)
	report, err := sf.DrainShard(leaver)
	if err != nil {
		return run, fmt.Errorf("drain shard %d: %w", leaver, err)
	}
	run.drainEndpoints = report.Endpoints
	run.drainGroups = report.Groups
	run.drainMovedTasks = report.Tasks
	run.drainDests = len(report.Destinations)
	if report.Endpoints == 0 || report.Groups == 0 {
		return run, fmt.Errorf("drain moved no records (report %+v)", report)
	}

	// Gather through a third shard: its ring still names the drained
	// shard as owner, so the wait hops drained shard -> importer —
	// the bounded extra hop the handoff overrides allow.
	results, err = client.GetResults(gctx, drainIDs)
	if err != nil {
		return run, fmt.Errorf("gathering across the drain: %w", err)
	}
	for _, res := range results {
		if res == nil || res.Err != nil {
			run.drainLost++
		}
	}
	run.drainMoved = run.drainTasks - run.drainLost
	if run.drainLost != 0 {
		return run, fmt.Errorf("durability: %d/%d tasks lost across drain", run.drainLost, run.drainTasks)
	}

	// The moved group must remain reachable through any front door.
	fut, err := client.SubmitFuture(ctx, sdk.SubmitSpec{
		Function: echoFn, Group: islands[1].group.ID, Payload: fx.SleepArgs(0),
	})
	if err != nil {
		return run, fmt.Errorf("post-drain submit: %w", err)
	}
	if res, err := fut.Get(gctx); err != nil || res.Err != nil {
		return run, fmt.Errorf("post-drain future did not resolve: %v / %v", err, res)
	}
	return run, nil
}

// --- part 3: WAL-on vs WAL-off submit throughput ---

type durabilityTput struct {
	wall time.Duration
	rate float64
}

// durabilityThroughput times a burst of concurrent direct-to-endpoint
// submissions against one instance; dataDir == "" runs in-memory.
func durabilityThroughput(opts Options, dataDir string, tasks int) (*durabilityTput, error) {
	const submitters = 16
	cfg := service.Config{HeartbeatPeriod: 50 * time.Millisecond, DataDir: dataDir}
	fab, err := core.NewFabric(core.FabricConfig{Service: cfg})
	if err != nil {
		return nil, err
	}
	defer fab.Close()
	ep, err := fab.AddEndpoint(core.EndpointOptions{
		Name: "tput", Owner: "experimenter",
		Managers: 1, WorkersPerManager: 8, PrewarmWorkers: 8,
		BatchDispatch:   true,
		HeartbeatPeriod: 50 * time.Millisecond,
		Seed:            opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	if err := ep.WaitForWorkers(1, 5*time.Second); err != nil {
		return nil, err
	}
	ctx := context.Background()
	reg := fab.Client("experimenter")
	defer reg.Close()
	fnID, err := reg.RegisterFunction(ctx, "noop", fx.BodyNoop, types.ContainerSpec{}, nil)
	if err != nil {
		return nil, err
	}

	perSubmitter := tasks / submitters
	type lane struct {
		client *sdk.Client
		ids    []types.TaskID
	}
	lanes := make([]*lane, submitters)
	for i := range lanes {
		lanes[i] = &lane{client: fab.Client("experimenter")}
	}
	defer func() {
		for _, l := range lanes {
			l.client.Close()
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	start := time.Now()
	for _, l := range lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			for t := 0; t < perSubmitter; t++ {
				id, _, err := l.client.Submit(ctx, sdk.SubmitSpec{Function: fnID, Endpoint: ep.ID})
				if err != nil {
					errs <- err
					return
				}
				l.ids = append(l.ids, id)
			}
		}(l)
	}
	wg.Wait()
	wall := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	gctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	for _, l := range lanes {
		results, err := l.client.GetResults(gctx, l.ids)
		if err != nil {
			return nil, fmt.Errorf("gather: %w", err)
		}
		for _, res := range results {
			if res == nil || res.Err != nil {
				return nil, fmt.Errorf("throughput task failed: %+v", res)
			}
		}
	}
	submitted := perSubmitter * submitters
	return &durabilityTput{wall: wall, rate: float64(submitted) / wall.Seconds()}, nil
}
