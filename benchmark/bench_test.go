package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{n: 20, q: 0.5, want: 10, ok: true},     // rank 10, 10 beyond
		{n: 19, q: 0.5, want: 10, ok: false},    // rank 10, 9 beyond
		{n: 1000, q: 0.99, want: 990, ok: true}, // rank 990, 10 beyond
		{n: 999, q: 0.99, want: 990, ok: false}, // rank 990, 9 beyond
		{n: 100, q: 0.9, want: 90, ok: true},
		{n: 1, q: 0.5, want: 1, ok: false},
	}
	for _, c := range cases {
		var d dist
		for i := c.n; i >= 1; i-- { // unsorted on purpose
			d.add(float64(i))
		}
		got, ok := d.quantile(c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d q=%g: got (%g, %v), want (%g, %v)", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	var empty dist
	if _, ok := empty.quantile(0.5); ok {
		t.Error("empty dist reported a quantile")
	}
}

// A stall in one send must show in the latency of every send that was
// due while it lasted: those sends are timed from their due time, not
// from when the stalled generator finally got to them.
func TestOpenLoopCountsStallInLaterLatencies(t *testing.T) {
	const (
		n        = 40
		interval = time.Millisecond
		stallAt  = 5
		stall    = 50 * time.Millisecond
	)
	latency := make([]time.Duration, n)
	var stallEnd time.Time
	start := time.Now().Add(time.Millisecond)
	lag := openLoop(start, n, interval, func(i int, due time.Time) {
		if i == stallAt {
			time.Sleep(stall)
			stallEnd = time.Now()
		}
		latency[i] = time.Since(due)
	})
	if lag.n() != n {
		t.Fatalf("lateness has %d samples, want %d", lag.n(), n)
	}
	for i := stallAt + 1; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(stallEnd) {
			continue
		}
		if want := stallEnd.Sub(due); latency[i] < want {
			t.Errorf("send %d: latency %v omits the stall (it was due %v before the stall ended)", i, latency[i], want)
		}
	}
	// Every send after the stall was due while it lasted (40 ms of
	// sends inside a 50 ms stall), so the generator ran late for all.
	if v, _ := lag.quantile(0.5); v < 10 {
		t.Errorf("median lateness %.2f ms, want the stall to show", v)
	}
}

func TestOpenLoopKeepsSchedule(t *testing.T) {
	start := time.Now().Add(time.Millisecond)
	var sent []time.Time
	openLoop(start, 5, 10*time.Millisecond, func(i int, due time.Time) {
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !due.Equal(want) {
			t.Errorf("send %d due %v, want %v", i, due, want)
		}
		sent = append(sent, time.Now())
	})
	for i, s := range sent {
		if due := start.Add(time.Duration(i) * 10 * time.Millisecond); s.Before(due) {
			t.Errorf("send %d went %v early", i, due.Sub(s))
		}
	}
}

const metricsBefore = `# HELP funcx_task_stage_seconds Per-stage task latency.
# TYPE funcx_task_stage_seconds histogram
funcx_task_stage_seconds_bucket{stage="submit",endpoint="e",le="0.001"} 2
funcx_task_stage_seconds_bucket{stage="submit",endpoint="e",le="0.01"} 3
funcx_task_stage_seconds_bucket{stage="submit",endpoint="e",le="+Inf"} 4
funcx_task_stage_seconds_sum{stage="submit",endpoint="e"} 0.5
funcx_task_stage_seconds_count{stage="submit",endpoint="e"} 4
funcx_task_stage_seconds_bucket{stage="total",endpoint="e",le="0.001"} 0
funcx_task_stage_seconds_bucket{stage="total",endpoint="e",le="0.01"} 4
funcx_task_stage_seconds_bucket{stage="total",endpoint="e",le="+Inf"} 4
funcx_task_stage_seconds_sum{stage="total",endpoint="e"} 0.02
funcx_task_stage_seconds_count{stage="total",endpoint="e"} 4
`

func TestStageHistogramDeltas(t *testing.T) {
	before, err := stageHists(metricsBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := stageHists(strings.NewReplacer(
		`le="0.001"} 2`, `le="0.001"} 12`,
		`le="0.01"} 3`, `le="0.01"} 13`,
		`le="+Inf"} 4`+"\nfuncx_task_stage_seconds_sum{stage=\"submit\",endpoint=\"e\"} 0.5", `le="+Inf"} 14`+"\nfuncx_task_stage_seconds_sum{stage=\"submit\",endpoint=\"e\"} 0.51",
		`funcx_task_stage_seconds_count{stage="submit",endpoint="e"} 4`, `funcx_task_stage_seconds_count{stage="submit",endpoint="e"} 14`,
	).Replace(metricsBefore))
	if err != nil {
		t.Fatal(err)
	}
	d := after["submit"].sub(before["submit"])
	if d.count != 10 || math.Abs(d.sum-0.01) > 1e-12 {
		t.Fatalf("delta count %v sum %v, want 10 and 0.01", d.count, d.sum)
	}
	if got := d.mean(); math.Abs(got-0.001) > 1e-12 {
		t.Errorf("delta mean %v, want 0.001", got)
	}
	if z := after["total"].sub(before["total"]); z.count != 0 || z.mean() != 0 {
		t.Errorf("unchanged stage: delta count %v mean %v, want 0 and 0", z.count, z.mean())
	}
}

func TestReconcile(t *testing.T) {
	mk := func(sum float64) hist { return hist{count: 10, sum: sum} }
	delta := map[string]hist{"submit": mk(0.001), "queue": mk(0.002), "dispatch": mk(0.003),
		"execute": mk(0.0001), "return": mk(0.0002), "publish": mk(0.0007), "total": mk(0.007)}
	var client dist
	client.add(0.8) // ms; the service mean total is 0.7 ms
	if err := reconcile(delta, &client); err != nil {
		t.Fatalf("consistent stages rejected: %v", err)
	}
	delta["total"] = mk(0.008)
	if err := reconcile(delta, &client); err == nil {
		t.Error("stages summing short of the total were accepted")
	}
	delta["total"] = mk(0.007)
	client = dist{}
	client.add(0.5)
	if err := reconcile(delta, &client); err == nil {
		t.Error("a service total above the client latency was accepted")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct{ method, path, want string }{
		{"POST", "/v1/tasks", routeSubmit},
		{"POST", "/v1/tasks/batch", routeBatch},
		{"POST", "/v1/tasks/wait", routeWait},
		{"GET", "/v1/events", routeEvents},
		{"GET", "/v1/tasks/abc/result", routeResult},
		{"GET", "/v1/tasks/abc/result?wait=30s", routeResult},
		{"GET", "/v1/tasks/abc", routeStatus},
		{"GET", "/v1/tasks/abc/trace", routeTrace},
		{"POST", "/v1/functions", routeRegister},
		{"GET", "/v1/tasks/", routeOther},
		{"GET", "/v1/tasks/abc/other", routeOther},
		{"GET", "/v1/tasks/batch", routeStatus}, // a GET names a task id
		{"DELETE", "/v1/tasks", routeOther},
		{"GET", "/v1/stats", routeOther},
	}
	for _, c := range cases {
		if got := classify(c.method, c.path); got != c.want {
			t.Errorf("classify(%s %s) = %s, want %s", c.method, c.path, got, c.want)
		}
	}
}

func TestPayloadIsSeeded(t *testing.T) {
	a, b := payload(7, 3, 256), payload(7, 3, 256)
	if string(a) != string(b) || len(a) != 256 {
		t.Fatal("same seed and index gave different payloads")
	}
	if string(payload(8, 3, 256)) == string(a) || string(payload(7, 4, 256)) == string(a) {
		t.Error("different seed or index gave the same payload")
	}
	if len(payload(1, 0, 1024)) != 1024 {
		t.Error("payload has the wrong size")
	}
}
