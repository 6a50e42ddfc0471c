package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"funcx/internal/types"
)

// Routes the benchmark tells apart on the SDK's HTTP traffic.
const (
	routeSubmit   = "submit"   // POST /v1/tasks
	routeBatch    = "batch"    // POST /v1/tasks/batch
	routeWait     = "wait"     // POST /v1/tasks/wait
	routeEvents   = "events"   // GET  /v1/events (the SSE stream)
	routeResult   = "result"   // GET  /v1/tasks/{id}/result
	routeStatus   = "status"   // GET  /v1/tasks/{id}
	routeTrace    = "trace"    // GET  /v1/tasks/{id}/trace
	routeRegister = "register" // POST /v1/functions
	routeOther    = "other"
)

// classify names the API route a request targets.
func classify(method, path string) string {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	switch {
	case method == http.MethodPost && path == "/v1/tasks":
		return routeSubmit
	case method == http.MethodPost && path == "/v1/tasks/batch":
		return routeBatch
	case method == http.MethodPost && path == "/v1/tasks/wait":
		return routeWait
	case method == http.MethodGet && path == "/v1/events":
		return routeEvents
	case method == http.MethodPost && path == "/v1/functions":
		return routeRegister
	case method == http.MethodGet && strings.HasPrefix(path, "/v1/tasks/"):
		rest := path[len("/v1/tasks/"):]
		id, sub, nested := strings.Cut(rest, "/")
		switch {
		case id == "":
			return routeOther
		case !nested:
			return routeStatus
		case sub == "result":
			return routeResult
		case sub == "trace":
			return routeTrace
		}
	}
	return routeOther
}

// routeCounts are one route's cumulative traffic.
type routeCounts struct {
	calls     atomic.Int64
	reqBytes  atomic.Int64
	respBytes atomic.Int64
}

// traffic is a snapshot of routeCounts.
type traffic struct{ calls, reqBytes, respBytes int64 }

// transport wraps the SDK's HTTP transport: it counts requests and body
// bytes per route, times each round trip up to the end of its response
// body, and, when spans are on, records each round trip as a child of
// the SDK call span carried in the request context.
type transport struct {
	base  http.RoundTripper
	spans atomic.Pointer[spanLog] // nil: untraced

	counts map[string]*routeCounts // fixed key set, read-only map

	mu  sync.Mutex
	dur map[string]*dist // round-trip time per route, in µs
}

func newTransport(base http.RoundTripper) *transport {
	t := &transport{base: base, counts: make(map[string]*routeCounts), dur: make(map[string]*dist)}
	for _, r := range []string{routeSubmit, routeBatch, routeWait, routeEvents, routeResult, routeStatus, routeTrace, routeRegister, routeOther} {
		t.counts[r] = &routeCounts{}
	}
	return t
}

// snapshot copies the cumulative counters.
func (t *transport) snapshot() map[string]traffic {
	out := make(map[string]traffic, len(t.counts))
	for r, c := range t.counts {
		out[r] = traffic{c.calls.Load(), c.reqBytes.Load(), c.respBytes.Load()}
	}
	return out
}

// resetTimes drops the round-trip times gathered so far and returns
// them, so each phase reads only its own.
func (t *transport) resetTimes() map[string]*dist {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.dur
	t.dur = make(map[string]*dist)
	return d
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	route := classify(req.Method, req.URL.Path)
	c := t.counts[route]
	c.calls.Add(1)
	if req.ContentLength > 0 {
		c.reqBytes.Add(req.ContentLength)
	}
	parent, _ := req.Context().Value(spanKey{}).(uint64)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, t: t, route: route, c: c, start: start, parent: parent}
	return resp, nil
}

// countingBody counts response bytes and ends the round trip's timing
// at EOF or Close, whichever comes first.
type countingBody struct {
	io.ReadCloser
	t      *transport
	route  string
	c      *routeCounts
	start  time.Time
	parent uint64
	once   sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.c.respBytes.Add(int64(n))
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *countingBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *countingBody) finish() {
	b.once.Do(func() {
		if b.route == routeEvents {
			return // a stream's lifetime is not a round trip
		}
		end := time.Now()
		b.t.mu.Lock()
		d := b.t.dur[b.route]
		if d == nil {
			d = &dist{}
			b.t.dur[b.route] = d
		}
		d.addDurUS(end.Sub(b.start))
		b.t.mu.Unlock()
		b.t.spans.Load().record(span{Name: "http." + b.route, Parent: b.parent, Start: b.start, End: end})
	})
}

// spanKey carries the enclosing SDK call's span id in a context.
type spanKey struct{}

// span is one timed interval of the traced run. Spans of one task share
// Task; an HTTP round trip's Parent is the SDK call that issued it.
type span struct {
	Name   string       `json:"name"`
	ID     uint64       `json:"id"`
	Parent uint64       `json:"parent,omitempty"`
	Task   types.TaskID `json:"task,omitempty"`
	Start  time.Time    `json:"start"`
	End    time.Time    `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// spanLog keeps the traced run's spans in memory until the run ends. A
// nil *spanLog records nothing, which is the untraced run.
type spanLog struct {
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// begin allocates a span id and returns ctx carrying it, so HTTP round
// trips issued under ctx become its children.
func (l *spanLog) begin(ctx context.Context) (context.Context, uint64) {
	if l == nil {
		return ctx, 0
	}
	id := l.next.Add(1)
	return context.WithValue(ctx, spanKey{}, id), id
}

func (l *spanLog) record(s span) {
	if l == nil {
		return
	}
	if s.ID == 0 {
		s.ID = l.next.Add(1)
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// take returns and clears the recorded spans.
func (l *spanLog) take() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.spans
	l.spans = nil
	return s
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
