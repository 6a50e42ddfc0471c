package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"sync"
	"time"

	"funcx/internal/api"
	"funcx/internal/sdk"
	"funcx/internal/types"
)

// workload is one traffic mix. See BENCHMARK.json for why each exists.
type workload struct {
	name        string
	wal         bool // service journals every store mutation (Config.DataDir)
	batch       bool // RunBatch + WaitTasks instead of futures
	payloadSize int
}

var workloads = []workload{
	{name: "submit_open", payloadSize: 256},
	{name: "submit_open_wal", wal: true, payloadSize: 256},
	{name: "batch_closed", batch: true, payloadSize: 1024},
}

const (
	openRate        = 1000 // tasks/s offered in the open-loop phase
	openOutstanding = 64   // futures held outstanding in the throughput phase
	batchSize       = 256  // tasks per RunBatch call
	batchesInFlight = 2    // batches outstanding at once
	drainTimeout    = 10 * time.Second
)

// payload derives task i's input from the seed. Every task of a run has
// a distinct index, so a result delivered to the wrong task fails the
// byte comparison.
func payload(seed int64, i, size int) []byte {
	r := rand.New(rand.NewPCG(uint64(seed), uint64(i)))
	p := make([]byte, size)
	for j := 0; j < size; j += 8 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], r.Uint64())
		copy(p[j:], w[:])
	}
	return p
}

// outcome classifies one task's resolution.
type outcome int

const (
	unresolved outcome = iota // not resolved by the phase deadline
	succeeded
	failedRemote // submit error or remote execution error
	wrongOutput  // resolved, but the output differs from the input
)

func check(res *sdk.Result, err error, want []byte) outcome {
	switch {
	case err != nil || res == nil || res.Err != nil:
		return failedRemote
	case !bytes.Equal(res.Output, want):
		return wrongOutput
	}
	return succeeded
}

// taskRec is one task's timeline as the client sees it.
type taskRec struct {
	id       types.TaskID
	due      time.Time // intended send time (open loop); call start otherwise
	call     time.Time // SDK call start
	resolved time.Time // future resolved / result in hand
	out      outcome
}

// phase is the outcome of one measured phase.
type phase struct {
	name    string
	start   time.Time
	end     time.Time // end of the offered-load window
	tasks   []*taskRec
	batches []*batch      // batch phases only
	lag     dist          // open-loop sender lateness, ms
	cpu     time.Duration // process CPU time from start until drained
}

func (p *phase) window() time.Duration { return p.end.Sub(p.start) }

// counts tallies the phase's outcomes.
func (p *phase) counts() (sent, ok, failed, wrong int) {
	for _, t := range p.tasks {
		sent++
		switch t.out {
		case succeeded:
			ok++
		case wrongOutput:
			wrong++
			failed++
		default:
			failed++
		}
	}
	return
}

// windows is how many consecutive windows a phase is cut into for the
// end-to-end figures.
const windows = 9

// overWindows evaluates f on the windows consecutive, equal windows of
// [start, end) and returns the median of the values f produced; ok is
// false unless more than half of the windows produced one. A stall
// confined to a few windows (a journal snapshot, a noisy neighbour)
// moves the figure by a rank or two instead of setting it.
func overWindows(start, end time.Time, f func(lo, hi time.Time) (float64, bool)) (float64, bool) {
	var vals dist
	w := end.Sub(start) / windows
	for k := 0; k < windows; k++ {
		lo := start.Add(time.Duration(k) * w)
		if v, ok := f(lo, lo.Add(w)); ok {
			vals.add(v)
		}
	}
	if 2*vals.n() <= windows {
		return 0, false
	}
	vals.quantile(0.5) // sorts
	return vals.v[vals.n()/2], true
}

// tps is verified completions per second: the median over the phase's
// windows of each window's completion rate, measured between its first
// and last completion so that results landing together (a whole batch)
// do not quantize it.
func (p *phase) tps() (float64, bool) {
	return overWindows(p.start, p.end, func(lo, hi time.Time) (float64, bool) {
		var first, last time.Time
		n, atFirst := 0, 0
		for _, t := range p.tasks {
			if t.out != succeeded || t.resolved.Before(lo) || !t.resolved.Before(hi) {
				continue
			}
			n++
			switch {
			case first.IsZero() || t.resolved.Before(first):
				first, atFirst = t.resolved, 1
			case t.resolved.Equal(first):
				atFirst++
			}
			if t.resolved.After(last) {
				last = t.resolved
			}
		}
		if n == atFirst {
			return 0, false
		}
		return float64(n-atFirst) / last.Sub(first).Seconds(), true
	})
}

// cpuPerTask is the process's CPU time, fabric and load generator
// together, per verified task of the phase, in µs.
func (p *phase) cpuPerTask() (float64, bool) {
	_, ok, _, _ := p.counts()
	if ok == 0 || p.cpu <= 0 {
		return 0, false
	}
	return float64(p.cpu.Microseconds()) / float64(ok), true
}

// unitLatency returns, per sent unit of work in [lo, hi), its latency in
// ms: a task from its due time to its verified resolution, or on a
// batch phase a whole batch from its submit call to its last verified
// result.
func (p *phase) unitLatency(lo, hi time.Time) *dist {
	d := &dist{}
	if p.batches != nil {
		for _, b := range p.batches {
			if !b.done.IsZero() && !b.call.Before(lo) && b.call.Before(hi) {
				d.addDur(b.done.Sub(b.call))
			}
		}
		return d
	}
	for _, t := range p.tasks {
		if t.out == succeeded && !t.due.Before(lo) && t.due.Before(hi) {
			d.addDur(t.resolved.Sub(t.due))
		}
	}
	return d
}

// latency is the median over the phase's windows of each window's
// q-quantile of unitLatency.
func (p *phase) latency(q float64) (float64, bool) {
	return overWindows(p.start, p.end, func(lo, hi time.Time) (float64, bool) {
		return p.unitLatency(lo, hi).quantile(q)
	})
}

// ids lists the phase's submitted task ids in submit order.
func (p *phase) ids() []types.TaskID {
	out := make([]types.TaskID, 0, len(p.tasks))
	for _, t := range p.tasks {
		if t.id != "" {
			out = append(out, t.id)
		}
	}
	return out
}

// openLoop calls send for i = 0..n-1 on one lane, each no earlier than
// its due time start+i·interval. A send that overruns delays the ones
// after it, and those are still timed from their own due times, so a
// stall shows in the latency of every request queued behind it. It
// returns the sender's lateness per send.
func openLoop(start time.Time, n int, interval time.Duration, send func(i int, due time.Time)) dist {
	var lag dist
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		lag.addDur(time.Since(due))
		send(i, due)
	}
	return lag
}

// generator runs the phases of one workload against one fabric.
type generator struct {
	w     workload
	seed  int64
	e     *env
	spans *spanLog // nil: untraced
	next  int      // next payload index
}

func (d *generator) take(n int) int {
	i := d.next
	d.next += n
	return i
}

// submit runs SubmitFuture under an SDK span.
func (d *generator) submit(ctx context.Context, p []byte) (*sdk.Future, error) {
	sctx, id := d.spans.begin(ctx)
	start := time.Now()
	f, err := d.e.client.SubmitFuture(sctx, sdk.SubmitSpec{Function: d.e.fn, Endpoint: d.e.ep.ID, Payload: p})
	var task types.TaskID
	if f != nil {
		task = f.TaskID()
	}
	d.spans.record(span{Name: "sdk.submit", ID: id, Task: task, Start: start, End: time.Now()})
	return f, err
}

// await resolves one future into rec, giving up at the deadline.
func (d *generator) await(dl context.Context, f *sdk.Future, rec *taskRec, want []byte) {
	submitted := time.Now()
	select {
	case <-f.Done():
	case <-dl.Done():
		rec.out = unresolved
		return
	}
	rec.resolved = time.Now()
	res, err, _ := f.TryGet()
	rec.out = check(res, err, want)
	d.spans.record(span{Name: "sdk.resolve", Task: rec.id, Start: submitted, End: rec.resolved})
}

// openPhase offers openRate tasks/s for dur on one sender lane; every
// future resolves over the client's SSE stream.
func (d *generator) openPhase(ctx context.Context, dur time.Duration) *phase {
	n := int(dur.Seconds() * openRate)
	base := d.take(n)
	ph := &phase{name: "open", tasks: make([]*taskRec, n)}
	cpu0 := cpuTime()
	defer func() { ph.cpu = cpuTime() - cpu0 }()
	dl, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	ph.start = time.Now().Add(time.Millisecond)
	ph.end = ph.start.Add(time.Duration(n) * time.Second / openRate)
	timer := time.AfterFunc(time.Until(ph.end.Add(drainTimeout)), cancel)
	defer timer.Stop()
	ph.lag = openLoop(ph.start, n, time.Second/openRate, func(i int, due time.Time) {
		rec := &taskRec{due: due, call: time.Now()}
		ph.tasks[i] = rec
		p := payload(d.seed, base+i, d.w.payloadSize)
		f, err := d.submit(dl, p)
		if err != nil {
			rec.out = failedRemote
			return
		}
		rec.id = f.TaskID()
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.await(dl, f, rec, p)
		}()
	})
	wg.Wait()
	return ph
}

// closedPhase holds openOutstanding futures outstanding for dur from
// one sender lane: a new task is sent as soon as one resolves.
func (d *generator) closedPhase(ctx context.Context, dur time.Duration) *phase {
	ph := &phase{name: "closed"}
	cpu0 := cpuTime()
	defer func() { ph.cpu = cpuTime() - cpu0 }()
	dl, cancel := context.WithCancel(ctx)
	defer cancel()
	slots := make(chan struct{}, openOutstanding)
	var wg sync.WaitGroup
	ph.start = time.Now()
	ph.end = ph.start.Add(dur)
	timer := time.AfterFunc(time.Until(ph.end.Add(drainTimeout)), cancel)
	defer timer.Stop()
	for time.Now().Before(ph.end) {
		select {
		case slots <- struct{}{}:
		case <-dl.Done():
			wg.Wait()
			return ph
		}
		p := payload(d.seed, d.take(1), d.w.payloadSize)
		rec := &taskRec{call: time.Now()}
		rec.due = rec.call
		ph.tasks = append(ph.tasks, rec)
		f, err := d.submit(dl, p)
		if err != nil {
			rec.out = failedRemote
			<-slots
			continue
		}
		rec.id = f.TaskID()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			d.await(dl, f, rec, p)
		}()
	}
	wg.Wait()
	return ph
}

// batch is one RunBatch call.
type batch struct {
	recs []*taskRec
	want [][]byte
	call time.Time
	done time.Time // last result verified; zero if any is missing
}

// batchPhase keeps batchesInFlight RunBatch calls of batchSize tasks
// outstanding for dur. One lane submits, one lane collects results
// through WaitTasks, so the client holds one submit and one wait
// connection.
func (d *generator) batchPhase(ctx context.Context, dur time.Duration) *phase {
	ph := &phase{name: "batch"}
	cpu0 := cpuTime()
	defer func() { ph.cpu = cpuTime() - cpu0 }()
	dl, cancel := context.WithCancel(ctx)
	defer cancel()
	slots := make(chan struct{}, batchesInFlight)
	inflight := make(chan *batch, batchesInFlight)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := range inflight {
			b.done = d.collect(dl, b)
			<-slots
		}
	}()
	ph.start = time.Now()
	ph.end = ph.start.Add(dur)
	timer := time.AfterFunc(time.Until(ph.end.Add(drainTimeout)), cancel)
	defer timer.Stop()
send:
	for time.Now().Before(ph.end) {
		select {
		case slots <- struct{}{}:
		case <-dl.Done():
			break send
		}
		base := d.take(batchSize)
		b := &batch{recs: make([]*taskRec, batchSize), want: make([][]byte, batchSize)}
		reqs := make([]api.SubmitRequest, batchSize)
		for i := range reqs {
			b.want[i] = payload(d.seed, base+i, d.w.payloadSize)
			reqs[i] = api.SubmitRequest{FunctionID: d.e.fn, EndpointID: d.e.ep.ID, Payload: b.want[i]}
		}
		sctx, sid := d.spans.begin(dl)
		b.call = time.Now()
		ids, err := d.e.client.RunBatch(sctx, reqs)
		d.spans.record(span{Name: "sdk.batch", ID: sid, Start: b.call, End: time.Now()})
		for i := range b.recs {
			b.recs[i] = &taskRec{due: b.call, call: b.call, out: failedRemote}
			if err == nil && i < len(ids) {
				b.recs[i].id = ids[i]
				b.recs[i].out = unresolved
			}
		}
		ph.tasks = append(ph.tasks, b.recs...)
		ph.batches = append(ph.batches, b)
		if err != nil || len(ids) != batchSize {
			<-slots
			continue
		}
		inflight <- b
	}
	close(inflight)
	<-done
	return ph
}

// collect waits for every task of b through WaitTasks, verifying each
// result, and returns when the last one arrived (zero if any is
// missing at the deadline).
func (d *generator) collect(dl context.Context, b *batch) time.Time {
	index := make(map[types.TaskID]int, len(b.recs))
	pending := make([]types.TaskID, len(b.recs))
	for i, r := range b.recs {
		index[r.id] = i
		pending[i] = r.id
	}
	var last time.Time
	for len(pending) > 0 && dl.Err() == nil {
		wctx, wid := d.spans.begin(dl)
		start := time.Now()
		res, still, err := d.e.client.WaitTasks(wctx, pending, 5*time.Second)
		now := time.Now()
		d.spans.record(span{Name: "sdk.wait", ID: wid, Start: start, End: now})
		for _, r := range res {
			i, ok := index[r.TaskID]
			if !ok {
				continue
			}
			rec := b.recs[i]
			rec.resolved = now
			rec.out = check(r, nil, b.want[i])
			d.spans.record(span{Name: "sdk.resolve", Task: rec.id, Start: b.call, End: now})
			last = now
		}
		if err != nil {
			// Results delivered alongside the error are already purged
			// server-side: wait only on the ones still missing.
			pending = pending[:0]
			for _, r := range b.recs {
				if r.out == unresolved {
					pending = append(pending, r.id)
				}
			}
			if errors.Is(err, context.Canceled) {
				break
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		pending = still
	}
	if len(pending) > 0 {
		return time.Time{}
	}
	return last
}
