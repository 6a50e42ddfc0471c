package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"funcx/internal/api"
	"funcx/internal/auth"
	"funcx/internal/dag"
	"funcx/internal/shard"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// fanIn declares n leaves feeding one root.
func fanIn(n int, spec dag.TaskSpec) []dag.NodeSpec {
	specs := make([]dag.NodeSpec, 0, n+1)
	leaves := make([]string, 0, n)
	for i := range n {
		key := fmt.Sprintf("leaf%d", i)
		leaf := spec
		leaf.Payload = []byte(fmt.Sprintf("echo-%04d", i))
		specs = append(specs, dag.NodeSpec{Key: key, Spec: leaf})
		leaves = append(leaves, key)
	}
	return append(specs, dag.NodeSpec{Key: "root", Spec: spec, DependsOn: leaves})
}

// boundInputs decodes the envelope a released node's queued task frame
// carries, by parent key.
func boundInputs(t *testing.T, svc *Service, id types.TaskID) map[string]string {
	t.Helper()
	rec, ok := svc.record(id)
	if !ok || rec.task == nil {
		t.Fatalf("%s has no queued task frame (record %+v, %v)", id, rec, ok)
	}
	task, err := wire.DecodeTask(rec.task)
	if err != nil {
		t.Fatal(err)
	}
	env, err := dag.DecodeEnvelope(task.Payload)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make(map[string]string, len(env.Inputs))
	for _, in := range env.Inputs {
		inputs[in.Key] = string(in.Output)
	}
	return inputs
}

// TestDAGJournalGrowthPerNode measures what a WAL-backed fan-in graph
// journals per node, from submit until every result was read after the
// root landed. A node must cost what a plain task costs (queued,
// terminal, purge) plus a share of the graph's two entries, so neither
// the appends nor the bytes per node may grow with the graph.
func TestDAGJournalGrowthPerNode(t *testing.T) {
	for _, n := range []int{10, 50, 200} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			svc, _, fnID, reg := durableFixture(t, t.TempDir())
			defer svc.Close()
			before, _ := svc.Store.WALStats()

			_, tasks, _, err := svc.SubmitDAG("alice", fanIn(n, dag.TaskSpec{Function: fnID, Endpoint: reg.EndpointID}))
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]types.TaskID, 0, len(tasks))
			for key, id := range tasks {
				if key != "root" {
					completeTask(svc, id, []byte("out-"+key))
					ids = append(ids, id)
				}
			}
			waitStatus(t, svc, types.TaskQueued, tasks["root"])
			completeTask(svc, tasks["root"], []byte("sum"))
			ids = append(ids, tasks["root"])
			results, pending := svc.WaitTasks(context.Background(), ids, time.Second)
			if len(results) != len(ids) || len(pending) != 0 {
				t.Fatalf("read %d results, %d pending; want %d read", len(results), len(pending), len(ids))
			}

			after, _ := svc.Store.WALStats()
			nodes := float64(n + 1)
			appends := float64(after.Appends-before.Appends) / nodes
			bytes := float64(after.AppendedBytes-before.AppendedBytes) / nodes
			t.Logf("N=%d: %.2f appends/node, %.0f B/node", n, appends, bytes)
			if n == 200 && appends > 3.1 {
				t.Errorf("%.2f WAL appends per node, want <= 3.1", appends)
			}
			if bytes > 1500 {
				t.Errorf("%.0f WAL bytes per node, want <= 1500", bytes)
			}
		})
	}
}

// TestDAGReadParentBindsAfterRestart: a fan-in parent's result is read
// before its sibling lands. The journal keeps its record as a read
// mark, so after a restart the child still binds the parent's output,
// while the parent stays gone (404) for every client surface. The
// mark goes when the graph finishes.
func TestDAGReadParentBindsAfterRestart(t *testing.T) {
	dir := t.TempDir()
	svc, cfg, fnID, reg := durableFixture(t, dir)
	spec := dag.TaskSpec{Function: fnID, Endpoint: reg.EndpointID}
	_, tasks, _, err := svc.SubmitDAG("alice", []dag.NodeSpec{
		{Key: "a", Spec: spec}, {Key: "b", Spec: spec},
		{Key: "sum", Spec: spec, DependsOn: []string{"a", "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	completeTask(svc, tasks["a"], []byte("out-a"))
	if res, err := svc.ResultFor(context.Background(), "alice", tasks["a"], 0); err != nil || string(res.Output) != "out-a" {
		t.Fatalf("read a = %+v, %v", res, err)
	}
	if _, ok := svc.Store.Hash(recordsHash).Get(string(tasks["a"])); !ok {
		t.Fatal("a read parent of an unfinished graph left the journal")
	}
	svc.Close()

	svc2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer svc2.Close()
	srv := httptest.NewServer(svc2)
	defer srv.Close()
	token := svc2.MintUserToken("alice", auth.ScopeAll)
	for _, path := range []string{"/v1/tasks/" + string(tasks["a"]), "/v1/tasks/" + string(tasks["a"]) + "/result"} {
		if code := doJSON(t, srv, token, http.MethodGet, path, nil, nil); code != http.StatusNotFound {
			t.Fatalf("GET %s after restart = %d, want 404", path, code)
		}
	}

	completeTask(svc2, tasks["b"], []byte("out-b"))
	if got := boundInputs(t, svc2, tasks["sum"]); got["a"] != "out-a" || got["b"] != "out-b" {
		t.Fatalf("child bound %v, want a=out-a b=out-b", got)
	}
	completeTask(svc2, tasks["sum"], []byte("sum"))
	if _, ok := svc2.Store.Hash(recordsHash).Get(string(tasks["a"])); ok {
		t.Fatal("read mark outlived its graph")
	}
	if code := doJSON(t, srv, token, http.MethodGet, "/v1/tasks/"+string(tasks["a"]), nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET a after the graph finished = %d, want 404", code)
	}
}

// TestDAGUnplacedAndHeldChildrenResume: a child claimed by its landed
// parent but not placed before the crash (no record image) is released
// again with its parent's output, and a child still held behind a live
// parent stays held until that parent lands.
func TestDAGUnplacedAndHeldChildrenResume(t *testing.T) {
	dir := t.TempDir()
	svc, cfg, fnID, reg := durableFixture(t, dir)
	spec := dag.TaskSpec{Function: fnID, Endpoint: reg.EndpointID}
	id, tasks, _, err := svc.SubmitDAG("alice", []dag.NodeSpec{
		{Key: "r1", Spec: spec}, {Key: "r2", Spec: spec},
		{Key: "claimed", Spec: spec, DependsOn: []string{"r1"}},
		{Key: "held", Spec: spec, DependsOn: []string{"r2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	completeTask(svc, tasks["r1"], []byte("out-1"))
	svc.Close()
	// The crash came between r1 landing and its child's placement.
	st := openJournal(t, dir)
	if !st.Hash(recordsHash).Del(string(tasks["claimed"])) {
		t.Fatal("placed child has no record image")
	}
	st.Close()

	svc2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer svc2.Close()
	if got := boundInputs(t, svc2, tasks["claimed"]); got["r1"] != "out-1" {
		t.Fatalf("re-released child bound %v, want r1=out-1", got)
	}
	if st, err := svc2.Status(tasks["held"]); err != nil || st != types.TaskPending {
		t.Fatalf("held child status = %s (%v), want %s", st, err, types.TaskPending)
	}
	status, err := svc2.DAGStatus("alice", id)
	if err != nil {
		t.Fatal(err)
	}
	states := make(map[string]string)
	for _, n := range status.Nodes {
		states[n.Key] = n.State
	}
	want := map[string]string{"r1": "success", "r2": "released", "claimed": "released", "held": "held"}
	if !reflect.DeepEqual(states, want) {
		t.Fatalf("node states after restart %v, want %v", states, want)
	}
	completeTask(svc2, tasks["r2"], []byte("out-2"))
	if got := boundInputs(t, svc2, tasks["held"]); got["r2"] != "out-2" {
		t.Fatalf("held child bound %v, want r2=out-2", got)
	}
}

// TestDAGReadExternalParentBindsAfterRestart: a chained task's local
// parent, submitted outside the graph, is read while the graph waits on
// a second parent. The graph pinned it first, so the journal keeps a
// read mark, and after a restart the child still binds its output.
func TestDAGReadExternalParentBindsAfterRestart(t *testing.T) {
	svc, cfg, fnID, reg := durableFixture(t, t.TempDir())
	sub := Submission{FunctionID: fnID, EndpointID: reg.EndpointID, Payload: []byte("x")}
	parent, local := submitAt(t, svc, sub), submitAt(t, svc, sub)
	child, _, _, err := svc.SubmitChained("alice", sub, []types.TaskID{parent, local})
	if err != nil {
		t.Fatal(err)
	}
	completeTask(svc, parent, []byte("out-p"))
	if res, err := svc.ResultFor(context.Background(), "alice", parent, 0); err != nil || string(res.Output) != "out-p" {
		t.Fatalf("read parent = %+v, %v", res, err)
	}
	svc.Close()

	svc2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer svc2.Close()
	if _, err := svc2.Status(parent); err == nil {
		t.Fatal("a read parent answers status after the restart")
	}
	completeTask(svc2, local, []byte("out-l"))
	if got := boundInputs(t, svc2, child); got[string(parent)] != "out-p" || got[string(local)] != "out-l" {
		t.Fatalf("child bound %v, want both parents' outputs", got)
	}
}

// TestChainedOnHeldNodeSurvivesRestarts: a chained task depends on a
// node still held in another graph. Whichever graph recovery loads
// first, the held node's record is recreated before the chained graph
// looks for it, so across several restarts the chained child stays
// held and finally binds the node's output.
func TestChainedOnHeldNodeSurvivesRestarts(t *testing.T) {
	svc, cfg, fnID, reg := durableFixture(t, t.TempDir())
	spec := dag.TaskSpec{Function: fnID, Endpoint: reg.EndpointID}
	_, tasks, _, err := svc.SubmitDAG("alice", []dag.NodeSpec{
		{Key: "r", Spec: spec}, {Key: "x", Spec: spec, DependsOn: []string{"r"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub := Submission{FunctionID: fnID, EndpointID: reg.EndpointID, Payload: []byte("x")}
	child, _, _, err := svc.SubmitChained("alice", sub, []types.TaskID{tasks["x"]})
	if err != nil {
		t.Fatal(err)
	}
	for range 6 {
		svc.Close()
		if svc, err = Open(cfg); err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if st, err := svc.Status(child); err != nil || st != types.TaskPending {
			t.Fatalf("chained child status = %s (%v), want %s", st, err, types.TaskPending)
		}
	}
	defer svc.Close()
	completeTask(svc, tasks["r"], []byte("out-r"))
	completeTask(svc, tasks["x"], []byte("out-x"))
	if got := boundInputs(t, svc, child); got[string(tasks["x"])] != "out-x" {
		t.Fatalf("chained child bound %v, want x=out-x", got)
	}
}

// TestSharedParentPinnedByConcurrentGraphs: graphs chained onto one
// parent from several goroutines each pin its record. A read that
// races their completions leaves at most a read mark, and the last
// graph's finish deletes it, so nothing of the parent outlives them.
func TestSharedParentPinnedByConcurrentGraphs(t *testing.T) {
	svc, _, fnID, reg := durableFixture(t, t.TempDir())
	defer svc.Close()
	sub := Submission{FunctionID: fnID, EndpointID: reg.EndpointID, Payload: []byte("x")}
	parent := submitAt(t, svc, sub)
	const n = 8
	children := make([]types.TaskID, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, _, _, err := svc.SubmitChained("alice", sub, []types.TaskID{parent})
			if err != nil {
				t.Error(err)
			}
			children[i] = id
		}()
	}
	wg.Wait()
	completeTask(svc, parent, []byte("out"))
	wg.Add(1)
	go func() {
		defer wg.Done()
		if res, _ := svc.WaitTasks(context.Background(), []types.TaskID{parent}, time.Second); len(res) != 1 {
			t.Error("parent result not read")
		}
	}()
	for _, child := range children {
		wg.Add(1)
		go func() {
			defer wg.Done()
			completeTask(svc, child, []byte("done"))
		}()
	}
	wg.Wait()
	if _, ok := svc.Store.Hash(recordsHash).Get(string(parent)); ok {
		t.Fatal("read parent still journaled after every graph finished")
	}
	svc.recMu.Lock()
	_, kept := svc.records[parent]
	svc.recMu.Unlock()
	if kept {
		t.Fatal("read parent still held in memory after every graph finished")
	}
}

// TestFinishedDAGStatusSurvivesRestart: a finished graph recovers from
// its final journal entry exactly as it was — states, errors,
// endpoints, memo flags and data references.
func TestFinishedDAGStatusSurvivesRestart(t *testing.T) {
	svc, cfg, fnID, reg := durableFixtureWith(t, Config{
		HeartbeatPeriod: time.Second, DataDir: t.TempDir(), DAGInlineLimit: 4,
	})
	spec := dag.TaskSpec{Function: fnID, Endpoint: reg.EndpointID}
	id, tasks, _, err := svc.SubmitDAG("alice", []dag.NodeSpec{
		{Key: "big", Spec: spec}, {Key: "bad", Spec: spec},
		{Key: "child", Spec: spec, DependsOn: []string{"big", "bad"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	completeTask(svc, tasks["big"], []byte("past the inline limit"))
	svc.OnResult(&types.Result{TaskID: tasks["bad"], Err: `{"message":"boom"}`, Completed: time.Now()})
	before, err := svc.DAGStatus("alice", id)
	if err != nil {
		t.Fatal(err)
	}
	if before.Status != types.TaskFailed {
		t.Fatalf("graph status %s, want %s", before.Status, types.TaskFailed)
	}
	svc.Close()

	svc2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer svc2.Close()
	after, err := svc2.DAGStatus("alice", id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("DAGStatus after restart\n%+v\nwant\n%+v", after, before)
	}
}

// TestCrossShardParentBindsAfterRestart: a chained task's parent lives
// on another shard, whose wait purged the result when this shard read
// it. The resolved outcome is journaled here, so after a restart the
// still-held child binds it once its local parent lands.
func TestCrossShardParentBindsAfterRestart(t *testing.T) {
	var svcA, svcB atomic.Pointer[Service]
	srvA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { svcA.Load().ServeHTTP(w, r) }))
	defer srvA.Close()
	srvB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { svcB.Load().ServeHTTP(w, r) }))
	defer srvB.Close()
	ring := shard.Config{Shards: []shard.Info{{ID: "shard-a", BaseURL: srvA.URL}, {ID: "shard-b", BaseURL: srvB.URL}}, Seed: 7}
	key := []byte("cross-shard-test-signing-key-32b")
	config := func(id shard.ID, dir string) Config {
		ringDir, err := shard.NewDirectory(ring, id)
		if err != nil {
			t.Fatal(err)
		}
		return Config{ShardID: id, Ring: ringDir, AuthKey: key, DataDir: dir, HeartbeatPeriod: time.Second}
	}
	open := func(cfg Config, into *atomic.Pointer[Service]) *Service {
		svc, err := Open(cfg)
		if err != nil {
			t.Fatalf("Open %s: %v", cfg.ShardID, err)
		}
		into.Store(svc)
		return svc
	}
	register := func(svc *Service) (types.FunctionID, types.EndpointID) {
		fn, err := svc.Registry.RegisterFunction("alice", "f", []byte("def f(): pass"), types.ContainerSpec{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ep, _, _, _, err := svc.RegisterEndpoint("alice", "ep", "", false, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fn.ID, ep.ID
	}

	b := open(config("shard-b", t.TempDir()), &svcB)
	defer b.Close()
	fnB, epB := register(b)
	parent := submitAt(t, b, Submission{FunctionID: fnB, EndpointID: epB, Payload: []byte("x")})
	completeTask(b, parent, []byte("out-remote"))

	cfgA := config("shard-a", t.TempDir())
	a := open(cfgA, &svcA)
	fnA, epA := register(a)
	local := submitAt(t, a, Submission{FunctionID: fnA, EndpointID: epA, Payload: []byte("y")})
	child, dagID, _, err := a.SubmitChained("alice", Submission{FunctionID: fnA, EndpointID: epA}, []types.TaskID{parent, local})
	if err != nil {
		t.Fatal(err)
	}
	// The resolver reads the parent off shard-b, which purges it there.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := a.DAGStatus("alice", dagID)
		if err != nil {
			t.Fatal(err)
		}
		if slices.ContainsFunc(st.Nodes, func(n api.DAGNodeStatus) bool { return n.TaskID == parent && n.State == "success" }) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cross-shard parent unresolved: %+v", st.Nodes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitGone := time.Now().Add(5 * time.Second)
	for _, err := b.Status(parent); err == nil; _, err = b.Status(parent) {
		if time.Now().After(waitGone) {
			t.Fatal("owner shard kept the parent after the resolver read it")
		}
		time.Sleep(5 * time.Millisecond)
	}
	a.Close()

	a2 := open(cfgA, &svcA)
	defer a2.Close()
	completeTask(a2, local, []byte("out-local"))
	got := boundInputs(t, a2, child)
	if got[string(parent)] != "out-remote" || got[string(local)] != "out-local" {
		t.Fatalf("child bound %v, want the remote and local outputs", got)
	}
	completeTask(a2, child, []byte("done"))
	if n := a2.Store.Hash(dagParentsHash).Len(); n != 0 {
		t.Fatalf("%d journaled cross-shard outcomes outlived their graph", n)
	}
}

// TestOutputJournalRefused: a data dir journaled while DAG parent
// outputs had their own "dagout" hash must fail Open with an error
// naming that format, rather than recover graphs without the outputs.
func TestOutputJournalRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{HeartbeatPeriod: 50 * time.Millisecond, DataDir: dir}
	registerDurableEndpoint(t, cfg)
	st := openJournal(t, dir)
	st.Hash("dagout").Set("t-old", []byte("output"))
	st.Close()

	svc, err := Open(cfg)
	if err == nil {
		svc.Close()
		t.Fatal("Open booted over an output-journal data dir")
	}
	if !strings.Contains(err.Error(), "output-journal format") {
		t.Fatalf("Open error %q does not name the journal format", err)
	}
}

// TestWaitRemoteTaskAbandonsSilentPeer: a peer that accepts the wait
// and never answers costs one chunk plus the margin, then reads as
// "retry", so the resolver's own deadline check keeps running.
func TestWaitRemoteTaskAbandonsSilentPeer(t *testing.T) {
	defer func(chunk time.Duration) { externalWaitChunk = chunk }(externalWaitChunk)
	externalWaitChunk = 50 * time.Millisecond
	release := make(chan struct{})
	silent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer silent.Close()
	defer close(release)
	svc, _, _ := newShardedService(t)

	start := time.Now()
	res, retry := svc.waitRemoteTask(shard.Info{BaseURL: silent.URL}, "token", "t-remote")
	if elapsed := time.Since(start); elapsed > externalWaitChunk+externalWaitMargin+time.Second {
		t.Fatalf("wait on a silent peer took %v", elapsed)
	}
	if res != nil || !retry {
		t.Fatalf("wait on a silent peer = %+v, retry=%v; want nothing, retry", res, retry)
	}
}
