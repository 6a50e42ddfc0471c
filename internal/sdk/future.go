package sdk

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"iter"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"funcx/internal/api"
	"funcx/internal/serial"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// Future is a handle on one submitted task's eventual result. Futures
// are resolved by the client's stream consumer for the task's shard:
// one SSE connection (GET /v1/events) carries every task's terminal
// event, so N outstanding futures cost one HTTP request, not N. A
// reconcile loop on the same consumer covers what the stream cannot
// carry (tasks that finished before the future registered, replay
// gaps, a stream that is down) with batched non-blocking waits
// (POST /v1/tasks/wait).
type Future struct {
	c    *Client
	id   types.TaskID
	done chan struct{}
	once sync.Once
	res  *Result
	err  error
}

func newFuture(c *Client, id types.TaskID) *Future {
	return &Future{c: c, id: id, done: make(chan struct{})}
}

// TaskID returns the underlying task id.
func (f *Future) TaskID() types.TaskID { return f.id }

// Done returns a channel closed when the future resolves.
func (f *Future) Done() <-chan struct{} { return f.done }

// Get blocks until the future resolves or ctx is done. A remote
// execution failure is reported inside the Result (Result.Err), not
// as Get's error, mirroring GetResult.
func (f *Future) Get(ctx context.Context) (*Result, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TryGet returns the resolved result without blocking; ok is false
// while the task is still outstanding.
func (f *Future) TryGet() (res *Result, err error, ok bool) {
	select {
	case <-f.done:
		return f.res, f.err, true
	default:
		return nil, nil, false
	}
}

func (f *Future) resolve(res *Result, err error) {
	f.once.Do(func() {
		f.res, f.err = res, err
		close(f.done)
	})
}

// Trace fetches the task's recorded lifecycle timeline from the
// service (see Client.TaskTrace). Most useful after the future
// resolves, when the timeline is complete and carries the per-stage
// latency decomposition.
func (f *Future) Trace(ctx context.Context) (*api.TaskTraceResponse, error) {
	return f.c.TaskTrace(ctx, f.id)
}

// SubmitFuture submits one task and returns a future for its result,
// starting the client's shared stream consumer on first use. Against a
// sharded service the future is registered with the consumer pinned to
// the task's *owner* shard (named by the submit response): lifecycle
// events are published on the owner's bus, not the front door's.
func (c *Client) SubmitFuture(ctx context.Context, spec SubmitSpec) (*Future, error) {
	// Start the front-door consumer before submitting so the event
	// subscription races ahead of the task on an unsharded service;
	// for a shard-proxied submission the registration catch-up (and
	// the owner consumer's own subscription) covers the window.
	if _, err := c.ensureStreamer(""); err != nil {
		return nil, err
	}
	resp, err := c.submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	st, err := c.ensureStreamer(resp.ShardURL)
	if err != nil {
		return nil, err
	}
	f := newFuture(c, resp.TaskID)
	st.register(f)
	return f, nil
}

// RunFuture submits a task pinned to an endpoint and returns a future
// for its result.
func (c *Client) RunFuture(ctx context.Context, fnID types.FunctionID, epID types.EndpointID, payload []byte) (*Future, error) {
	return c.SubmitFuture(ctx, SubmitSpec{Function: fnID, Endpoint: epID, Payload: payload})
}

// RunAnywhereFuture submits a router-placed task to an endpoint group
// and returns a future for its result.
func (c *Client) RunAnywhereFuture(ctx context.Context, fnID types.FunctionID, gid types.GroupID, payload []byte) (*Future, error) {
	return c.SubmitFuture(ctx, SubmitSpec{Function: fnID, Group: gid, Payload: payload})
}

// FutureOf attaches a future to an already-submitted task id (e.g.
// ids returned by RunBatch). The consumer reconciles tasks that
// completed before attachment via a batched wait, so no completion is
// lost to the registration race. The future rides the front-door
// consumer; against a sharded service whose front door does not own
// the task, resolution comes from the reconcile loop's periodic sweep
// (the gateway scatter-gathers the wait) rather than the event stream.
func (c *Client) FutureOf(id types.TaskID) (*Future, error) {
	st, err := c.ensureStreamer("")
	if err != nil {
		return nil, err
	}
	f := newFuture(c, id)
	st.register(f)
	return f, nil
}

// MapFuture tracks the batch tasks of one Map call as futures.
type MapFuture struct {
	// Handle is the underlying Map handle (task ids, batch sizes).
	Handle  *MapHandle
	futures []*Future
}

// Futures returns the per-batch futures in dispatch order.
func (m *MapFuture) Futures() []*Future { return m.futures }

// Results blocks for every batch and returns the flattened unpacked
// outputs in submission order, like MapResults.
func (m *MapFuture) Results(ctx context.Context) ([][]byte, error) {
	results := make([]*Result, len(m.futures))
	for i, f := range m.futures {
		res, err := f.Get(ctx)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return unpackMapResults(results)
}

// MapFuture is Map returning per-batch futures resolved by the shared
// stream consumer.
func (c *Client) MapFuture(ctx context.Context, fnID types.FunctionID, epID types.EndpointID, items iter.Seq[any], batchSize, batchCount int) (*MapFuture, error) {
	h, err := c.Map(ctx, fnID, epID, items, batchSize, batchCount)
	if err != nil {
		return nil, err
	}
	return c.mapFutureOf(h)
}

// MapAnywhereFuture is MapAnywhere returning per-batch futures.
func (c *Client) MapAnywhereFuture(ctx context.Context, fnID types.FunctionID, gid types.GroupID, items iter.Seq[any], batchSize, batchCount int) (*MapFuture, error) {
	h, err := c.MapAnywhere(ctx, fnID, gid, items, batchSize, batchCount)
	if err != nil {
		return nil, err
	}
	return c.mapFutureOf(h)
}

func (c *Client) mapFutureOf(h *MapHandle) (*MapFuture, error) {
	m := &MapFuture{Handle: h, futures: make([]*Future, len(h.TaskIDs))}
	for i, id := range h.TaskIDs {
		f, err := c.FutureOf(id)
		if err != nil {
			return nil, err
		}
		m.futures[i] = f
	}
	return m, nil
}

// --- the shared stream consumer ---

// streamer is the per-shard background consumer resolving futures. It
// runs two goroutines: streamLoop keeps one SSE subscription for all
// of the user's task events alive (Last-Event-ID resume on reconnect),
// and reconcileLoop resolves the rest with batched non-blocking waits.
type streamer struct {
	c *Client
	// base is the shard base URL this consumer is pinned to ("" = the
	// client's front door): its SSE subscription and batched waits
	// both target the shard that owns its tasks.
	base   string
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	futures map[types.TaskID]*Future
	// verify accumulates ids needing a batched completion check:
	// freshly registered futures (their terminal event may predate
	// the subscription) and everything pending after a replay gap.
	verify map[types.TaskID]bool
	// kick is a single-token channel waking the reconcile loop.
	kick chan struct{}
	// stash holds terminal results that arrived on the stream before
	// their future registered. The server purges a result's store copy
	// once its inline event is delivered on the owner's stream
	// (ack-on-stream), so the event bytes may be the only copy left —
	// dropping them would strand a late-registered future. Bounded
	// FIFO (stashOrder) so tasks that never register cannot pin
	// unbounded memory.
	stash      map[types.TaskID]*Result
	stashOrder []types.TaskID
	// stopped marks the consumer shut down: late registrations (a
	// SubmitFuture racing Close) resolve with ErrClosed instead of
	// landing in a map nothing drains.
	stopped bool
}

// ensureStreamer lazily starts the consumer for one shard base URL
// ("" or the client's own base URL both mean the front door).
func (c *Client) ensureStreamer(base string) (*streamer, error) {
	if base == c.baseURL {
		base = ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.streamers == nil {
		c.streamers = make(map[string]*streamer)
	}
	if c.streamers[base] == nil {
		//funcx:ignore ctxflow the stream consumer is client-scoped by design: it outlives any single call and is torn down by Client.Close.
		ctx, cancel := context.WithCancel(context.Background())
		st := &streamer{
			c: c, base: base, ctx: ctx, cancel: cancel,
			futures: make(map[types.TaskID]*Future),
			verify:  make(map[types.TaskID]bool),
			stash:   make(map[types.TaskID]*Result),
			kick:    make(chan struct{}, 1),
		}
		st.wg.Add(2)
		go st.streamLoop()
		go st.reconcileLoop()
		c.streamers[base] = st
	}
	return c.streamers[base], nil
}

func (st *streamer) stop() {
	st.cancel()
	st.wg.Wait()
	st.mu.Lock()
	st.stopped = true
	st.mu.Unlock()
	st.failAll(ErrClosed)
}

func (st *streamer) register(f *Future) {
	st.mu.Lock()
	if st.stopped {
		st.mu.Unlock()
		f.resolve(nil, ErrClosed)
		return
	}
	// A stashed result means the terminal event already arrived on the
	// stream (and its store copy may be purged): resolve immediately.
	if res, ok := st.stash[f.id]; ok {
		delete(st.stash, f.id)
		st.mu.Unlock()
		f.resolve(res, nil)
		return
	}
	// Every registration is verified with a batched non-blocking
	// wait: if the task completed before this point (even before the
	// subscription existed), the reconcile loop resolves it.
	st.futures[f.id] = f
	st.verify[f.id] = true
	st.mu.Unlock()
	st.wake()
}

func (st *streamer) wake() {
	select {
	case st.kick <- struct{}{}:
	default:
	}
}

// stashCap bounds the unmatched-result stash per consumer.
const stashCap = 4096

// resolveOrStash routes one terminal result to its registered future,
// stashing results for tasks with no future yet. The stash matters
// since the ack-on-stream purge: delivering an inline result on the
// owner's event stream drops its store copy early, so a future
// registered *after* the event (FutureOf on a batch id, a reconnect
// replay) may find nothing left to wait on — the stashed event bytes
// are its result. The stash is bounded FIFO; evicted tasks fall back
// to the registration-time verify, which still resolves them whenever
// the server retains results (purge disabled or TTL-deferred).
func (st *streamer) resolveOrStash(id types.TaskID, res *Result) {
	st.mu.Lock()
	f, ok := st.futures[id]
	if ok {
		delete(st.futures, id)
		delete(st.verify, id)
	} else if _, dup := st.stash[id]; !dup {
		// Pop stale order entries (ids already taken by a wait or a
		// registration) before evicting a live one.
		for len(st.stashOrder) >= stashCap {
			victim := st.stashOrder[0]
			st.stashOrder = st.stashOrder[1:]
			if _, live := st.stash[victim]; live {
				delete(st.stash, victim)
				break
			}
		}
		st.stash[id] = res
		st.stashOrder = append(st.stashOrder, id)
	}
	st.mu.Unlock()
	if ok {
		f.resolve(res, nil)
	}
}

// takeStashed removes and returns a result the ack-on-stream purge
// left only in a streamer's stash. WaitTasks (and so TryResult,
// GetResult and GetResults) consults it before going to the wire:
// once a client holds an open event stream, terminal results for its
// user ride that stream and their store copies are purged, so a wait
// that ignored the stash would block on a result the client already
// has.
func (c *Client) takeStashed(id types.TaskID) (*Result, bool) {
	c.mu.Lock()
	sts := make([]*streamer, 0, len(c.streamers))
	for _, st := range c.streamers {
		sts = append(sts, st)
	}
	c.mu.Unlock()
	for _, st := range sts {
		st.mu.Lock()
		res, ok := st.stash[id]
		if ok {
			delete(st.stash, id)
		}
		st.mu.Unlock()
		if ok {
			return res, true
		}
	}
	return nil, false
}

// enqueueVerifyAll schedules a completion check for every pending
// future (after a fresh subscription, a replay gap, or a sweep tick).
func (st *streamer) enqueueVerifyAll() {
	st.mu.Lock()
	for id := range st.futures {
		st.verify[id] = true
	}
	st.mu.Unlock()
	st.wake()
}

func (st *streamer) failAll(err error) {
	st.mu.Lock()
	futures := st.futures
	st.futures = make(map[types.TaskID]*Future)
	st.verify = make(map[types.TaskID]bool)
	st.mu.Unlock()
	for _, f := range futures {
		f.resolve(nil, err)
	}
}

// streamLoop keeps one SSE subscription alive, reconnecting with
// Last-Event-ID after drops. Any failure to subscribe (including a
// server without the stream) is retried with capped backoff; the
// reconcile loop's sweep resolves futures meanwhile.
func (st *streamer) streamLoop() {
	defer st.wg.Done()
	var lastSeq uint64
	backoff := 100 * time.Millisecond
	for {
		if st.ctx.Err() != nil {
			return
		}
		err := st.streamOnce(&lastSeq)
		if st.ctx.Err() != nil {
			return
		}
		if err == nil {
			backoff = 100 * time.Millisecond
		} else {
			// Persistent errors (revoked token, server 5xx) must not
			// hammer the service: back off exponentially, capped.
			backoff = min(2*backoff, 5*time.Second)
		}
		select {
		case <-st.ctx.Done():
			return
		case <-time.After(backoff):
		}
	}
}

// streamOnce opens one SSE subscription and consumes it until the
// connection drops. lastSeq carries the resume position across calls;
// it is reset to zero (resubscribe from now + reconcile) on a replay
// gap.
func (st *streamer) streamOnce(lastSeq *uint64) error {
	c := st.c
	base := st.base
	if base == "" {
		base = c.baseURL
	}
	req, err := http.NewRequestWithContext(st.ctx, http.MethodGet, base+"/v1/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	req.Header.Set("Accept", "text/event-stream")
	if *lastSeq > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*lastSeq, 10))
	}
	c.Lat.Delay()
	// The stream outlives any request timeout: use a client sharing
	// the transport but without the deadline.
	resp, err := (&http.Client{Transport: c.httpc.Transport}).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// Replay gap: resume impossible. Resubscribe from now and
		// reconcile completions missed meanwhile via batched wait.
		*lastSeq = 0
		st.enqueueVerifyAll()
		return nil
	default:
		return fmt.Errorf("sdk: GET /v1/events: HTTP %d", resp.StatusCode)
	}

	// Subscribed. Futures registered before this point may have
	// completed before the subscription existed: reconcile them.
	st.enqueueVerifyAll()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	var event string
	var data []byte
	var id uint64
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event == "gap" {
				*lastSeq = 0
				st.enqueueVerifyAll()
			} else if len(data) > 0 {
				if ev, err := wire.DecodeEvent(data); err == nil {
					if ev.Seq > 0 {
						*lastSeq = ev.Seq
					} else if id > 0 {
						*lastSeq = id
					}
					st.handleEvent(ev)
				}
			}
			event, data, id = "", nil, 0
		case strings.HasPrefix(line, ":"):
			// Heartbeat comment.
		case strings.HasPrefix(line, "id:"):
			id, _ = strconv.ParseUint(strings.TrimSpace(line[3:]), 10, 64)
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(line[6:])
		case strings.HasPrefix(line, "data:"):
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, strings.TrimPrefix(line[5:], " ")...)
		}
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		// An event frame larger than the scan buffer would be replayed
		// verbatim on a Last-Event-ID reconnect, poisoning the stream
		// forever. Skip past it: resubscribe from now and reconcile
		// everything pending via batched wait.
		*lastSeq = 0
		st.enqueueVerifyAll()
	}
	return sc.Err()
}

// handleEvent routes one decoded stream event.
func (st *streamer) handleEvent(ev *types.TaskEvent) {
	if !ev.Terminal() {
		return
	}
	r, err := wire.DecodeResult(ev.Result)
	if len(ev.Result) == 0 || err != nil {
		// A replayed terminal event: the replay ring trims inline
		// result bytes, so fetch the result via batched wait instead.
		st.mu.Lock()
		if _, pending := st.futures[ev.TaskID]; pending {
			st.verify[ev.TaskID] = true
		}
		st.mu.Unlock()
		st.wake()
		return
	}
	st.resolveOrStash(ev.TaskID, resultOf(r))
}

// resultOf converts a service result (decoded from a stream event, or
// from a wait response via api.ResultResponse.Result) into the SDK
// shape, mapping remote failures to ErrTaskFailed / ErrTaskLost.
func resultOf(r *types.Result) *Result {
	res := &Result{
		TaskID:   r.TaskID,
		Output:   r.Output,
		Timing:   r.Timing,
		Memoized: r.Memoized,
	}
	if r.Err != "" {
		res.Err = fmt.Errorf("%w: %w", ErrTaskFailed, serial.DecodeError([]byte(r.Err)))
		if r.Lost {
			res.Err = fmt.Errorf("%w: %w", ErrTaskLost, res.Err)
		}
	}
	return res
}

// reconcileLoop resolves futures the stream has not: on each kick it
// debounces a burst of queued ids (fresh registrations, replay gaps)
// into one batched non-blocking wait, so a future whose task completed
// before the subscription still resolves. Each sweep tick queues every
// pending future, which covers terminal events this consumer's stream
// can never carry (futures attached by id whose tasks live on another
// shard, where the front door's scatter-gather wait is the only path)
// and a stream that cannot be opened at all.
func (st *streamer) reconcileLoop() {
	defer st.wg.Done()
	sweep := time.NewTicker(max(st.c.WaitHint, time.Second))
	defer sweep.Stop()
	backoff := 50 * time.Millisecond
	for {
		select {
		case <-st.ctx.Done():
			return
		case <-sweep.C:
			st.enqueueVerifyAll()
			continue
		case <-st.kick:
		}
		// Debounce: let a burst of registrations coalesce.
		select {
		case <-st.ctx.Done():
			return
		case <-time.After(2 * time.Millisecond):
		}
		st.mu.Lock()
		ids := make([]types.TaskID, 0, len(st.verify))
		for id := range st.verify {
			if _, pending := st.futures[id]; pending {
				ids = append(ids, id)
			}
		}
		st.verify = make(map[types.TaskID]bool)
		st.mu.Unlock()
		if len(ids) == 0 {
			continue
		}
		done, _, err := st.c.waitTasksAt(st.ctx, st.base, ids, 0)
		// Resolve partial results before the error: their server-side
		// copies are already purged.
		for _, res := range done {
			st.resolveOrStash(res.TaskID, res)
		}
		if err != nil {
			// Retry the whole set on the next kick, backing off while
			// the error persists (it may be permanent: revoked token,
			// server fault).
			st.mu.Lock()
			for _, id := range ids {
				st.verify[id] = true
			}
			st.mu.Unlock()
			select {
			case <-st.ctx.Done():
				return
			case <-time.After(backoff):
			}
			backoff = min(2*backoff, 5*time.Second)
			st.wake()
			continue
		}
		backoff = 50 * time.Millisecond
		// Ids still pending resolve through the stream when their
		// terminal event lands, or on a later sweep.
	}
}
