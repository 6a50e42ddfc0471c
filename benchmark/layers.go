package main

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"time"

	"funcx/internal/api"
	"funcx/internal/types"
)

// timelineSample bounds how many of a phase's most recent tasks have
// their service timelines fetched (the service retains 4096).
const timelineSample = 2000

// sampler polls a reading every period on its own goroutine until stop.
type sampler struct {
	stopc chan struct{}
	done  chan struct{}
	at    []time.Time
	vals  dist
}

func startSampler(period time.Duration, read func() float64) *sampler {
	s := &sampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			s.vals.add(read())
			s.at = append(s.at, time.Now())
			select {
			case <-s.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling; the readings may be used once it returns.
func (s *sampler) stop() *sampler {
	close(s.stopc)
	<-s.done
	return s
}

// max is the largest reading taken in [lo, hi).
func (s *sampler) max(lo, hi time.Time) (float64, bool) {
	peak, ok := 0.0, false
	for i, t := range s.at {
		if !t.Before(lo) && t.Before(hi) {
			peak, ok = math.Max(peak, s.vals.v[i]), true
		}
	}
	return peak, ok
}

// startHeapSampler tracks the process's heap in use (HeapInuse: object
// bytes plus the free space inside in-use spans). The figure reported is
// the median over the run's windows of each window's peak.
func startHeapSampler() *sampler {
	samples := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	return startSampler(10*time.Millisecond, func() float64 {
		metrics.Read(samples)
		return float64(samples[0].Value.Uint64() + samples[1].Value.Uint64())
	})
}

// runtimeCounters are the process-wide allocation and GC totals.
type runtimeCounters struct{ allocs, bytes, gcs float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64()), float64(s[2].Value.Uint64())}
}

// snapshot is everything read from the outside around a traced phase.
type snapshot struct {
	stats   *api.StatsResponse
	hists   map[string]hist
	rt      runtimeCounters
	http    map[string]traffic
	agentRq int64
}

func take(ctx context.Context, d *generator) (snapshot, error) {
	var s snapshot
	var err error
	if s.stats, err = d.e.obs.Stats(ctx); err != nil {
		return s, fmt.Errorf("GET /v1/stats: %w", err)
	}
	if s.hists, err = d.e.stageHists(ctx); err != nil {
		return s, err
	}
	s.rt = readRuntime()
	s.http = d.e.tr.snapshot()
	_, _, s.agentRq = d.e.ep.Agent.Stats()
	return s, nil
}

// layers is the traced primary phase with what was observed around it.
type layers struct {
	primary    *phase
	before     snapshot
	after      snapshot
	queueDepth *sampler
	httpTimes  map[string]*dist // µs per route
	spans      []span
	timelines  []*api.TaskTraceResponse
	completed  int
}

// observe runs one traced phase between two snapshots of the program's
// surfaces, sampling the agent's queue depth meanwhile, and fetches the
// retained timelines of its last tasks.
func observe(ctx context.Context, d *generator, run func() *phase) (*layers, error) {
	l := &layers{}
	var err error
	if l.before, err = take(ctx, d); err != nil {
		return nil, err
	}
	d.e.tr.resetTimes()
	depth := startSampler(2*time.Millisecond, func() float64 { return float64(d.e.ep.Agent.QueueDepth()) })
	l.primary = run()
	l.queueDepth = depth.stop()
	l.httpTimes = d.e.tr.resetTimes()
	l.spans = d.spans.take()
	if l.after, err = take(ctx, d); err != nil {
		return nil, err
	}
	ids := l.primary.ids()
	l.timelines = d.e.timelines(ctx, ids[max(0, len(ids)-timelineSample):])
	_, l.completed, _, _ = l.primary.counts()
	if l.completed == 0 {
		return nil, fmt.Errorf("traced phase completed no task")
	}
	return l, nil
}

// stageNames maps the service's stage labels to the layer that owns
// each stage, for metric names.
var stageNames = []struct{ label, metric string }{
	{"submit", "service.submit_stage"},
	{"queue", "forwarder.queue_stage"},
	{"dispatch", "endpoint.dispatch_stage"},
	{"execute", "worker.execute_stage"},
	{"return", "endpoint.return_stage"},
	{"publish", "events.publish_stage"},
	{"total", "service.total_stage"},
}

// report adds the per-layer metrics. base/baseTPS are the untraced
// pass, tpsPhase the traced throughput phase.
func (l *layers) report(rep *report, base, baseTPS, tpsPhase *phase) error {
	tasks := float64(l.completed)
	perTask := func(v float64) float64 { return v / tasks }
	per1k := func(v float64) float64 { return 1000 * v / tasks }

	// End-to-end figures the bounded metrics leave out.
	sent, _, failed, _ := base.counts()
	if baseTPS != base {
		s2, _, f2, _ := baseTPS.counts()
		sent, failed = sent+s2, failed+f2
	}
	rep.add("e2e.failed_frac", "frac", float64(failed)/float64(max(sent, 1)), sent)
	// pct reports d's q-quantile times scale, or 0 and why not.
	pct := func(name, unit string, d *dist, q, scale float64, absent string) {
		if v, ok := d.quantile(q); ok {
			rep.add(name, unit, v*scale, d.n())
		} else {
			rep.none(name, unit, fmt.Sprintf("%s: %d samples", absent, d.n()))
		}
	}
	// Latency of the untraced pass. On a shared 2-vCPU machine it
	// moves more between identical runs than any bound an end-to-end
	// metric may carry. The p50 is the median over the pass's windows
	// of each window's p50; the tail is over the whole pass.
	if v, ok := base.latency(0.5); ok {
		rep.add("e2e.latency_p50_ms", "ms", v, base.unitLatency(base.start, base.end).n())
	} else {
		rep.none("e2e.latency_p50_ms", "ms", "too few samples per window")
	}
	lat := base.unitLatency(base.start, base.end)
	pct("e2e.latency_p90_ms", "ms", lat, 0.9, 1, "too few")
	pct("e2e.latency_p99_ms", "ms", lat, 0.99, 1, "too few")
	pct("loadgen.lag_p99_ms", "ms", &base.lag, 0.99, 1, "no open-loop schedule")
	traced, ok1 := tpsPhase.tps()
	untraced, ok2 := baseTPS.tps()
	if !ok1 || !ok2 {
		return fmt.Errorf("throughput phases completed too few tasks")
	}
	rep.add("e2e.tps", "1/s", untraced, len(baseTPS.tasks))
	rep.add("trace.overhead_frac", "frac", 1-traced/untraced, 0)

	// sdk: spans around SDK calls, with their HTTP round trips as
	// children.
	byParent := make(map[uint64]span)
	calls := map[string]*dist{"sdk.submit": {}, "sdk.batch": {}}
	var self dist
	for _, s := range l.spans {
		if s.Parent != 0 {
			byParent[s.Parent] = s
		}
	}
	for _, s := range l.spans {
		d, ok := calls[s.Name]
		if !ok {
			continue
		}
		d.addDurUS(s.dur())
		if c, ok := byParent[s.ID]; ok {
			self.addDurUS(s.dur() - c.dur())
		}
	}
	pct("sdk.submit_call_p50_us", "us", calls["sdk.submit"], 0.5, 1, "SubmitFuture calls")
	pct("sdk.batch_call_p50_ms", "ms", calls["sdk.batch"], 0.5, 1e-3, "RunBatch calls")
	pct("sdk.self_p50_us", "us", &self, 0.5, 1, "SDK calls with an HTTP child")

	resolved := make(map[types.TaskID]time.Time, len(l.primary.tasks))
	var client dist
	for _, t := range l.primary.tasks {
		if t.out == succeeded {
			resolved[t.id] = t.resolved
			client.addDur(t.resolved.Sub(t.call))
		}
	}
	var lag dist
	stages := make(map[string]*dist)
	for _, tr := range l.timelines {
		if pub, ok := publishedAt(tr); ok {
			if at, ok := resolved[tr.TaskID]; ok {
				lag.addDur(at.Sub(pub))
			}
		}
		dc := tr.Decomposition
		for label, ns := range map[string]int64{"submit": dc.SubmitNanos, "queue": dc.QueueNanos, "dispatch": dc.DispatchNanos,
			"execute": dc.ExecuteNanos, "return": dc.ReturnNanos, "publish": dc.PublishNanos, "total": dc.TotalNanos} {
			if stages[label] == nil {
				stages[label] = &dist{}
			}
			stages[label].addDur(time.Duration(ns))
		}
	}
	pct("sdk.resolve_lag_p50_ms", "ms", &lag, 0.5, 1, "retained timelines")

	// http: traffic through the SDK's transport.
	var reqs, reqB, respB int64
	for r, after := range l.after.http {
		before := l.before.http[r]
		reqs += after.calls - before.calls
		reqB += after.reqBytes - before.reqBytes
		respB += after.respBytes - before.respBytes
	}
	callsOf := func(r string) float64 { return float64(l.after.http[r].calls - l.before.http[r].calls) }
	rep.add("http.requests_per_task", "req/task", perTask(float64(reqs)), 0)
	rep.add("http.req_bytes_per_task", "B/task", perTask(float64(reqB)), 0)
	rep.add("http.resp_bytes_per_task", "B/task", perTask(float64(respB)), 0)
	rep.add("http.wait_calls_per_1k_tasks", "count", per1k(callsOf(routeWait)), 0)
	rep.add("http.result_polls_per_1k_tasks", "count", per1k(callsOf(routeResult)), 0)
	times := func(r string) *dist {
		if d := l.httpTimes[r]; d != nil {
			return d
		}
		return &dist{}
	}
	pct("http.submit_p50_us", "us", times(routeSubmit), 0.5, 1, "POST /v1/tasks")
	pct("http.batch_p50_ms", "ms", times(routeBatch), 0.5, 1e-3, "POST /v1/tasks/batch")
	pct("http.wait_p50_ms", "ms", times(routeWait), 0.5, 1e-3, "POST /v1/tasks/wait")

	// Stages: means from the funcx_task_stage_seconds deltas, which
	// cover every task of the phase; percentiles from the retained
	// timelines, because most stages sit inside the histogram's finest
	// (0.5 ms) bucket, where interpolated quantiles say nothing.
	delta := make(map[string]hist)
	for _, s := range stageNames {
		delta[s.label] = l.after.hists[s.label].sub(l.before.hists[s.label])
	}
	for _, s := range stageNames {
		d := stages[s.label]
		if d == nil {
			d = &dist{}
		}
		pct(s.metric+".p50_ms", "ms", d, 0.5, 1, "retained timelines")
		pct(s.metric+".p99_ms", "ms", d, 0.99, 1, "retained timelines")
		h := delta[s.label]
		rep.add(s.metric+".mean_ms", "ms", 1e3*h.mean(), int(h.count))
	}
	if err := reconcile(delta, &client); err != nil {
		return err
	}
	rep.add("sdk.overhead_ms", "ms", client.mean()-1e3*delta["total"].mean(), client.n())

	// store/wal: the journal's counters.
	if a, b := l.after.stats.WAL, l.before.stats.WAL; a != nil && b != nil {
		fsyncs := float64(a.Fsyncs - b.Fsyncs)
		rep.add("wal.appends_per_task", "count", perTask(float64(a.Appends-b.Appends)), 0)
		rep.add("wal.bytes_per_task", "B/task", perTask(float64(a.AppendedBytes-b.AppendedBytes)), 0)
		rep.add("wal.tasks_per_fsync", "count", tasks/math.Max(fsyncs, 1), 0)
		rep.add("wal.fsync_mean_ms", "ms", float64(a.FsyncNanos-b.FsyncNanos)/1e6/math.Max(fsyncs, 1), int(fsyncs))
		rep.add("wal.rotations", "count", float64(a.Rotations-b.Rotations), 0)
		rep.add("wal.snapshots", "count", float64(a.Snapshots-b.Snapshots), 0)
	} else {
		for _, m := range []struct{ name, unit string }{{"wal.appends_per_task", "count"}, {"wal.bytes_per_task", "B/task"},
			{"wal.tasks_per_fsync", "count"}, {"wal.fsync_mean_ms", "ms"}, {"wal.rotations", "count"}, {"wal.snapshots", "count"}} {
			rep.none(m.name, m.unit, "in-memory store")
		}
	}

	// endpoint, forwarder, events: agent samples and stats deltas.
	depth := &l.queueDepth.vals
	maxDepth, _ := depth.quantile(1)
	rep.add("endpoint.queue_depth_mean", "tasks", depth.mean(), depth.n())
	rep.add("endpoint.queue_depth_max", "tasks", maxDepth, depth.n())
	rep.add("endpoint.requeued", "count", float64(l.after.agentRq-l.before.agentRq), 0)
	epA, epB := endpointRow(l.after.stats), endpointRow(l.before.stats)
	rep.add("forwarder.requeued_per_1k_tasks", "count", per1k(float64(epA.Requeued-epB.Requeued)), 0)
	rep.add("forwarder.reclaimed_per_1k_tasks", "count", per1k(float64(epA.Reclaimed-epB.Reclaimed)), 0)
	completed := float64(epA.Completed - epB.Completed)
	rep.add("events.stream_purged_frac", "frac", float64(l.after.stats.StreamPurged-l.before.stats.StreamPurged)/math.Max(completed, 1), 0)

	// runtime: the whole process, fabric and load generator together.
	rep.add("runtime.allocs_per_task", "allocs", perTask(l.after.rt.allocs-l.before.rt.allocs), 0)
	rep.add("runtime.alloc_bytes_per_task", "B/task", perTask(l.after.rt.bytes-l.before.rt.bytes), 0)
	rep.add("runtime.gc_per_1k_tasks", "count", per1k(l.after.rt.gcs-l.before.rt.gcs), 0)
	return nil
}

// reconcile checks the traced stage histograms against each other and
// against the client: the six stages must sum to the total stage, and
// the service's mean total cannot exceed the mean latency the client
// saw for the same tasks (the service's interval lies inside it).
func reconcile(delta map[string]hist, client *dist) error {
	total := delta["total"]
	sum := 0.0
	for _, s := range stageNames[:6] {
		if c := delta[s.label].count; c != total.count {
			return fmt.Errorf("reconcile: stage %s has %v observations, total has %v", s.label, c, total.count)
		}
		sum += delta[s.label].sum
	}
	// Each observation is a float64 of whole nanoseconds; allow one ns
	// of rounding per observation.
	if math.Abs(sum-total.sum) > 1e-9*total.count+1e-12 {
		return fmt.Errorf("reconcile: stages sum to %.9fs, total stage is %.9fs", sum, total.sum)
	}
	if svc := 1e3 * total.mean(); svc > client.mean() {
		return fmt.Errorf("reconcile: mean service total %.4f ms exceeds mean client latency %.4f ms", svc, client.mean())
	}
	return nil
}

func endpointRow(st *api.StatsResponse) api.EndpointStats {
	if len(st.Endpoints) == 1 {
		return st.Endpoints[0]
	}
	return api.EndpointStats{}
}
