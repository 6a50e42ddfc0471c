package sdk

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"funcx/internal/api"
	"funcx/internal/serial"
	"funcx/internal/service"
	"funcx/internal/types"
)

// getCtx bounds future gathering in tests.
func getCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestSubmitFutureResolvesViaStream(t *testing.T) {
	c, svc := testClient(t)
	t.Cleanup(c.Close)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)

	f, err := c.SubmitFuture(ctx, SubmitSpec{Function: fnID, Endpoint: epID, Payload: []byte("in")})
	if err != nil {
		t.Fatal(err)
	}
	complete(svc, f.TaskID(), "streamed")
	res, err := f.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var s string
	if _, err := res.Value(&s); err != nil || s != "streamed" {
		t.Fatalf("value = %q, %v", s, err)
	}
}

func TestFutureOfResolvesAlreadyCompletedTask(t *testing.T) {
	c, svc := testClient(t)
	t.Cleanup(c.Close)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)

	// Complete the task before any future (or stream) exists: the
	// consumer must reconcile via batch wait, not hang.
	id, _, err := c.Submit(ctx, SubmitSpec{Function: fnID, Endpoint: epID})
	if err != nil {
		t.Fatal(err)
	}
	complete(svc, id, 7.0)
	f, err := c.FutureOf(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := res.Value(nil); err != nil || v.(float64) != 7.0 {
		t.Fatalf("value = %v, %v", v, err)
	}
}

func TestFutureSurfacesRemoteFailure(t *testing.T) {
	c, svc := testClient(t)
	t.Cleanup(c.Close)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)

	f, err := c.SubmitFuture(ctx, SubmitSpec{Function: fnID, Endpoint: epID})
	if err != nil {
		t.Fatal(err)
	}
	res := &types.Result{TaskID: f.TaskID(), Err: string(serial.EncodeError(errors.New("boom"), string(f.TaskID())))}
	svc.OnResult(res)
	got, err := f.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Err == nil || !errors.Is(got.Err, ErrTaskFailed) {
		t.Fatalf("Err = %v, want ErrTaskFailed", got.Err)
	}
}

// sseless wraps a service with the event stream removed.
func sseless(t *testing.T, svc *service.Service) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/events" {
			http.NotFound(w, r)
			return
		}
		svc.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestFutureFallsBackToBatchWait: with the event stream unavailable,
// a future whose task completes after registration still resolves,
// through the reconcile loop's batched waits.
func TestFutureFallsBackToBatchWait(t *testing.T) {
	c, svc := testClient(t)
	srv := sseless(t, svc)
	c2 := New(srv.URL, c.token)
	c2.WaitHint = 50 * time.Millisecond
	t.Cleanup(c2.Close)
	fnID, epID := fixture(t, c2)
	ctx := getCtx(t)

	f, err := c2.SubmitFuture(ctx, SubmitSpec{Function: fnID, Endpoint: epID})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		complete(svc, f.TaskID(), "fallback")
	}()
	res, err := f.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var s string
	if _, err := res.Value(&s); err != nil || s != "fallback" {
		t.Fatalf("value = %q, %v", s, err)
	}
}

// waitRecorder is a transport that remembers every task id named in a
// POST /v1/tasks/wait request.
type waitRecorder struct {
	mu   sync.Mutex
	seen map[types.TaskID]bool
}

func (w *waitRecorder) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/v1/tasks/wait" && r.GetBody != nil {
		body, err := r.GetBody()
		if err != nil {
			return nil, err
		}
		var req api.WaitTasksRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			return nil, err
		}
		w.mu.Lock()
		for _, id := range req.TaskIDs {
			w.seen[id] = true
		}
		w.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(r)
}

func (w *waitRecorder) waitedOn(id types.TaskID) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seen[id]
}

// eventually polls cond until it holds or the test deadline nears.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStashServesResultsPurgedByStream: a terminal event that reaches
// the client's stream before any future exists for its task is kept in
// the stash. Once the server's stored copy is gone, FutureOf,
// GetResult and WaitTasks must all be served from the stash, without a
// wait request for the id.
func TestStashServesResultsPurgedByStream(t *testing.T) {
	c, svc := testClient(t)
	rec := &waitRecorder{seen: make(map[types.TaskID]bool)}
	c.WithHTTPClient(&http.Client{Transport: rec})
	t.Cleanup(c.Close)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)

	// Holding one future opens the client's event stream.
	if _, err := c.SubmitFuture(ctx, SubmitSpec{Function: fnID, Endpoint: epID}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the event stream to subscribe", func() bool { return svc.Events.Stats().Subscribers > 0 })

	ids := make([]types.TaskID, 3)
	for i := range ids {
		id, _, err := c.Submit(ctx, SubmitSpec{Function: fnID, Endpoint: epID})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		complete(svc, id, fmt.Sprintf("v%d", i))
	}
	st, err := c.ensureStreamer("")
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "the terminal events to reach the stash", func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		for _, id := range ids {
			if _, ok := st.stash[id]; !ok {
				return false
			}
		}
		return true
	})
	// Another reader takes (and so purges) every result server-side.
	if done, _ := svc.WaitTasks(ctx, ids, 0); len(done) != len(ids) {
		t.Fatalf("purging read took %d results, want %d", len(done), len(ids))
	}

	f, err := c.FutureOf(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	res0, err := f.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := c.GetResult(ctx, ids[1])
	if err != nil {
		t.Fatal(err)
	}
	done, pending, err := c.WaitTasks(ctx, ids[2:], 0)
	if err != nil || len(done) != 1 || len(pending) != 0 {
		t.Fatalf("WaitTasks = %d done, %v pending, %v", len(done), pending, err)
	}
	for i, res := range []*Result{res0, res1, done[0]} {
		var s string
		if _, err := res.Value(&s); err != nil || s != fmt.Sprintf("v%d", i) || res.TaskID != ids[i] {
			t.Fatalf("result %d = %s %q, %v", i, res.TaskID, s, err)
		}
	}
	for _, id := range ids {
		if rec.waitedOn(id) {
			t.Fatalf("task %s was waited on over the wire; want it served from the stash", id)
		}
	}
}

func TestCloseFailsPendingFutures(t *testing.T) {
	c, _ := testClient(t)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)
	f, err := c.SubmitFuture(ctx, SubmitSpec{Function: fnID, Endpoint: epID})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := f.Get(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
	if _, err := c.SubmitFuture(ctx, SubmitSpec{Function: fnID, Endpoint: epID}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitFuture after Close = %v, want ErrClosed", err)
	}
}

func TestWaitTasksPartialCompletion(t *testing.T) {
	c, svc := testClient(t)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)
	var ids []types.TaskID
	for i := 0; i < 3; i++ {
		id, _, err := c.Submit(ctx, SubmitSpec{Function: fnID, Endpoint: epID, Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	complete(svc, ids[0], "a")
	complete(svc, ids[2], "c")
	done, pending, err := c.WaitTasks(ctx, ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 || len(pending) != 1 || pending[0] != ids[1] {
		t.Fatalf("done=%d pending=%v", len(done), pending)
	}
}

func TestGetResultsBatchWaitPreservesOrder(t *testing.T) {
	c, svc := testClient(t)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)
	var ids []types.TaskID
	for i := 0; i < 4; i++ {
		id, _, err := c.Submit(ctx, SubmitSpec{Function: fnID, Endpoint: epID, Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// The slowest task is first: batch wait must not let it serialize
	// the rest (one blocking round gathers everything).
	for i := 1; i < 4; i++ {
		complete(svc, ids[i], fmt.Sprintf("v%d", i))
	}
	go func() {
		time.Sleep(40 * time.Millisecond)
		complete(svc, ids[0], "v0")
	}()
	results, err := c.GetResults(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		var s string
		if _, err := res.Value(&s); err != nil || s != fmt.Sprintf("v%d", i) {
			t.Fatalf("result %d = %q, %v", i, s, err)
		}
		if res.TaskID != ids[i] {
			t.Fatalf("result %d out of order", i)
		}
	}
}

func TestMapFutureGathersPackedBatches(t *testing.T) {
	c, svc := testClient(t)
	t.Cleanup(c.Close)
	fnID, epID := fixture(t, c)
	ctx := getCtx(t)

	mf, err := c.MapFuture(ctx, fnID, epID, seqOf(5), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Futures()) != 3 {
		t.Fatalf("futures = %d, want 3 batches", len(mf.Futures()))
	}
	// Simulate the worker: each batch returns one packed output per
	// item.
	for i, id := range mf.Handle.TaskIDs {
		parts := make([]serial.Part, mf.Handle.Sizes[i])
		for j := range parts {
			parts[j] = serial.Part{Tag: fmt.Sprintf("o%d", j), Body: []byte(fmt.Sprintf("out-%d-%d", i, j))}
		}
		res := &types.Result{TaskID: id, Output: serial.Pack(parts...), Completed: time.Now()}
		svc.OnResult(res)
	}
	outs, err := mf.Results(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 5 || string(outs[0]) != "out-0-0" || string(outs[4]) != "out-2-0" {
		t.Fatalf("outs = %q", outs)
	}
}
