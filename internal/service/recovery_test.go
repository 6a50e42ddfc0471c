package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"funcx/internal/api"
	"funcx/internal/auth"
	"funcx/internal/dag"
	"funcx/internal/store"
	"funcx/internal/transport"
	"funcx/internal/types"
	"funcx/internal/wal"
	"funcx/internal/wire"
)

// TestReattachAfterRecovery drives the operator story the reattach
// surface exists for: a durable service restarts, recovery rebuilds
// the endpoint record and a fresh forwarder on a new ephemeral port,
// and the agent rejoins via POST /v1/endpoints/{id}/reattach instead
// of registering a new endpoint (which would mint a new id and strand
// the old queue).
func TestReattachAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{HeartbeatPeriod: 50 * time.Millisecond, DataDir: dir}

	svc1, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv1 := httptest.NewServer(svc1)
	alice := svc1.MintUserToken("alice", auth.ScopeAll)

	var reg api.RegisterEndpointResponse
	if code := doJSON(t, srv1, alice, http.MethodPost, "/v1/endpoints",
		api.RegisterEndpointRequest{Name: "ep1"}, &reg); code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	srv1.Close()
	svc1.Close()

	svc2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer svc2.Close()
	srv2 := httptest.NewServer(svc2)
	defer srv2.Close()
	if st := svc2.StatsSnapshot(); st.WAL == nil || !st.WAL.Recovered {
		t.Fatal("second boot did not recover from the journal")
	}

	// The recovered instance has a fresh signing key; the owner
	// re-authenticates by subject, as with any token expiry.
	alice2 := svc2.MintUserToken("alice", auth.ScopeAll)
	var att api.RegisterEndpointResponse
	code := doJSON(t, srv2, alice2, http.MethodPost,
		"/v1/endpoints/"+string(reg.EndpointID)+"/reattach", struct{}{}, &att)
	if code != http.StatusOK {
		t.Fatalf("reattach = %d", code)
	}
	if att.EndpointID != reg.EndpointID {
		t.Fatalf("reattach id = %s, want %s", att.EndpointID, reg.EndpointID)
	}
	// The re-bound listener may land on any ephemeral port (including,
	// rarely, the old one) — only liveness is asserted.
	if att.ForwarderAddr == "" {
		t.Fatal("reattach returned no forwarder address")
	}
	if err := svc2.verifyEndpointToken(att.EndpointID, att.EndpointToken); err != nil {
		t.Fatalf("reissued endpoint token rejected: %v", err)
	}

	// Only the owner may reissue credentials, and the endpoint must
	// exist.
	mallory := svc2.MintUserToken("mallory", auth.ScopeAll)
	if code := doJSON(t, srv2, mallory, http.MethodPost,
		"/v1/endpoints/"+string(reg.EndpointID)+"/reattach", struct{}{}, nil); code < 400 {
		t.Fatalf("non-owner reattach = %d, want an error", code)
	}
	if code := doJSON(t, srv2, alice2, http.MethodPost,
		"/v1/endpoints/nope/reattach", struct{}{}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown endpoint reattach = %d, want 404", code)
	}
}

// registerDurableEndpoint registers one endpoint in cfg's data dir and
// closes the service again.
func registerDurableEndpoint(t *testing.T, cfg Config) types.EndpointID {
	t.Helper()
	svc, _, _, reg := durableFixture(t, cfg.DataDir)
	svc.Close()
	return reg.EndpointID
}

// openJournal opens a data dir's store directly, with the service down.
func openJournal(t *testing.T, dir string) *store.Store {
	t.Helper()
	log, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.NewPersistent(log, store.PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestJSONEraTaskRecordsRecoverAsLost restarts a durable service on
// task records whose embedded task frames were written before tasks
// were framed in binary: they are JSON. Every such task must resolve
// as TaskLost instead of hanging, whatever status its image says, and
// the rebuilt queue must hold nothing for it.
func TestJSONEraTaskRecordsRecoverAsLost(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{HeartbeatPeriod: 50 * time.Millisecond, DataDir: dir}
	epID := registerDurableEndpoint(t, cfg)

	// Journal two tasks with JSON frames while the service is down: one
	// whose image says dispatched, one still queued.
	frame := func(id string) []byte {
		return []byte(`{"task_id":"` + id + `","function_id":"fn-1","endpoint_id":"` + string(epID) +
			`","owner":"alice","container":{},"payload":"eA==","attempt":1,"at_most_once":true}`)
	}
	st := openJournal(t, dir)
	images := map[types.TaskID]types.TaskStatus{"t-dispatched": types.TaskDispatched, "t-queued": types.TaskQueued}
	for id, status := range images {
		st.Hash(recordsHash).Set(string(id), encodeRecord(taskRecord{
			owner: "alice", endpoint: epID, status: status, attempt: 1, task: frame(string(id)),
		}))
	}
	st.Close()

	svc2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer svc2.Close()
	// Recovery lands the tasks lost before the forwarder starts, so the
	// queue is checked once, with nothing leased from it.
	q := svc2.Store.Queue(store.TaskQueueName(string(epID)))
	if n := q.Len() + q.PendingLen(); n != 0 {
		t.Fatalf("rebuilt queue holds %d items for undecodable records, want 0", n)
	}
	var ids []types.TaskID
	for id := range images {
		ids = append(ids, id)
		if status, err := svc2.Status(id); err != nil || status != types.TaskLost {
			t.Fatalf("%s status = %s (%v), want %s", id, status, err, types.TaskLost)
		}
	}
	results, pending := svc2.WaitTasks(context.Background(), ids, 5*time.Second)
	if len(pending) != 0 || len(results) != len(ids) {
		t.Fatalf("results %d, pending %v; want every task resolved", len(results), pending)
	}
	for _, res := range results {
		if !res.Lost || !strings.Contains(res.Err, "task record corrupt after crash") {
			t.Fatalf("result %+v, want lost with a corrupt-record error", res)
		}
	}
}

// TestPreRecordJournalRefused: a data dir whose journal still holds
// the per-task owners/tasks/status/results hashes of the format before
// the task record must fail Open with an error naming that format,
// rather than boot with those in-flight tasks silently gone.
func TestPreRecordJournalRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{HeartbeatPeriod: 50 * time.Millisecond, DataDir: dir}
	registerDurableEndpoint(t, cfg)
	st := openJournal(t, dir)
	st.Hash("owners").Set("t-old", []byte("alice"))
	st.Hash("status").Set("t-old", []byte(types.TaskQueued))
	st.Close()

	svc, err := Open(cfg)
	if err == nil {
		svc.Close()
		t.Fatal("Open booted over a pre-record journal")
	}
	if !strings.Contains(err.Error(), "pre-record task journal") {
		t.Fatalf("Open error %q does not name the journal format", err)
	}
}

// TestQueueEraJournalRefused: a data dir journaled while the endpoint
// queues were durable — a WAL holding a queue opcode, or a snapshot
// carrying a queue section — must fail Open with an error naming that
// format. Skipping those records would drop the at-most-once leases
// they hold, and the tasks would run again.
func TestQueueEraJournalRefused(t *testing.T) {
	for name, write := range map[string]func(*wal.Log) error{
		"wal": func(log *wal.Log) error {
			// Opcode 3 pushed one item onto a named queue.
			return log.Append([]byte("\x03\x0ctasks:ep-old\x04task"))
		},
		"snapshot": func(log *wal.Log) error {
			seg, err := log.Rotate()
			if err != nil {
				return err
			}
			// No hashes, then a queue section with no queues.
			return log.WriteSnapshot(seg, []byte{0, 0})
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{HeartbeatPeriod: 50 * time.Millisecond, DataDir: dir}
			registerDurableEndpoint(t, cfg)
			log, err := wal.Open(wal.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := write(log); err != nil {
				t.Fatal(err)
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			svc, err := Open(cfg)
			if err == nil {
				svc.Close()
				t.Fatal("Open booted over a queue-era journal")
			}
			if !strings.Contains(err.Error(), "queue-era format") {
				t.Fatalf("Open error %q does not name the journal format", err)
			}
		})
	}
}

// durableFixture opens a durable service in dir with one function and
// one endpoint registered by alice. Heartbeats are slow enough that a
// silent agent stays connected for the length of a test.
func durableFixture(t *testing.T, dir string) (*Service, Config, types.FunctionID, api.RegisterEndpointResponse) {
	t.Helper()
	return durableFixtureWith(t, Config{HeartbeatPeriod: time.Second, DataDir: dir})
}

// durableFixtureWith is durableFixture over a caller's config.
func durableFixtureWith(t *testing.T, cfg Config) (*Service, Config, types.FunctionID, api.RegisterEndpointResponse) {
	t.Helper()
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv := httptest.NewServer(svc)
	defer srv.Close()
	token := svc.MintUserToken("alice", auth.ScopeAll)
	var fn api.RegisterFunctionResponse
	if code := doJSON(t, srv, token, http.MethodPost, "/v1/functions",
		api.RegisterFunctionRequest{Name: "f", Body: []byte("def f(): pass")}, &fn); code != http.StatusCreated {
		t.Fatalf("register function = %d", code)
	}
	var reg api.RegisterEndpointResponse
	if code := doJSON(t, srv, token, http.MethodPost, "/v1/endpoints",
		api.RegisterEndpointRequest{Name: "ep"}, &reg); code != http.StatusCreated {
		t.Fatalf("register endpoint = %d", code)
	}
	return svc, cfg, fn.FunctionID, reg
}

// silentAgent registers with the endpoint's forwarder and then only
// receives: it runs nothing and sends no heartbeats.
func silentAgent(t *testing.T, reg api.RegisterEndpointResponse) transport.Conn {
	t.Helper()
	conn, err := transport.Dial(reg.ForwarderNetwork, reg.ForwarderAddr, string(reg.EndpointID))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	hello := &wire.Registration{EndpointID: reg.EndpointID, Token: reg.EndpointToken}
	if err := conn.Send(transport.Message{Type: transport.MsgRegister, Payload: wire.EncodeRegistration(hello)}); err != nil {
		t.Fatal(err)
	}
	if msg, err := conn.Recv(2 * time.Second); err != nil || msg.Type != transport.MsgRegisterAck {
		t.Fatalf("registration ack = %+v, %v", msg, err)
	}
	return conn
}

// recvTasks waits for n task frames on an agent connection.
func recvTasks(t *testing.T, conn transport.Conn, n int) {
	t.Helper()
	for got := 0; got < n; {
		msg, err := conn.Recv(2 * time.Second)
		if err != nil {
			t.Fatalf("agent received %d of %d tasks: %v", got, n, err)
		}
		if msg.Type == transport.MsgTask {
			got++
		}
	}
}

// waitStatus polls until every task has the wanted status.
func waitStatus(t *testing.T, svc *Service, want types.TaskStatus, ids ...types.TaskID) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range ids {
		for {
			st, err := svc.Status(id)
			if err == nil && st == want {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s status = %s (%v), want %s", id, st, err, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func submitAt(t *testing.T, svc *Service, sub Submission) types.TaskID {
	t.Helper()
	// Submission times order a rebuilt queue; keep them distinct.
	time.Sleep(time.Millisecond)
	id, _, _, err := svc.SubmitTaskAt("alice", sub, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestAtMostOnceInFlightAtGracefulRestartRecoversLost: Close cancels
// the service before its forwarders stop, so the shutdown cannot hand
// in-flight tasks to the reclaim path and returns them to the queue.
// An at-most-once task the agent already received must still recover
// as lost — it may have run — while an at-least-once one in the same
// position recovers as queued for redelivery.
func TestAtMostOnceInFlightAtGracefulRestartRecoversLost(t *testing.T) {
	dir := t.TempDir()
	svc, cfg, fnID, reg := durableFixture(t, dir)
	conn := silentAgent(t, reg)
	once := submitAt(t, svc, Submission{FunctionID: fnID, EndpointID: reg.EndpointID, Payload: []byte("x"), AtMostOnce: true})
	least := submitAt(t, svc, Submission{FunctionID: fnID, EndpointID: reg.EndpointID, Payload: []byte("x")})
	recvTasks(t, conn, 2)
	waitStatus(t, svc, types.TaskDispatched, once, least)
	svc.Close()

	svc2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer svc2.Close()
	if st, err := svc2.Status(once); err != nil || st != types.TaskLost {
		t.Fatalf("at-most-once task status = %s (%v), want %s", st, err, types.TaskLost)
	}
	if st, err := svc2.Status(least); err != nil || st != types.TaskQueued {
		t.Fatalf("at-least-once task status = %s (%v), want %s", st, err, types.TaskQueued)
	}
}

// TestQueuesRebuiltFromRecords checks the recovery rule that replaced
// the durable queue: live records requeue on their endpoint in
// submission order with their attempt kept — including tasks a reclaim
// requeued behind later ones — while an unread result is served, not
// re-run, and a held DAG node stays held.
func TestQueuesRebuiltFromRecords(t *testing.T) {
	dir := t.TempDir()
	svc, cfg, fnID, reg := durableFixture(t, dir)
	sub := Submission{FunctionID: fnID, EndpointID: reg.EndpointID, Payload: []byte("x")}

	// Three tasks reach an agent that then drops: the reclaim requeues
	// them at attempt 2, in whatever order it walks the leases.
	conn := silentAgent(t, reg)
	var order []types.TaskID
	for i := 0; i < 3; i++ {
		order = append(order, submitAt(t, svc, sub))
	}
	recvTasks(t, conn, 3)
	waitStatus(t, svc, types.TaskDispatched, order...)
	conn.Close()
	waitStatus(t, svc, types.TaskQueued, order...)
	reclaimed := slices.Clone(order)

	// Later submissions queue behind them, a graph holds its child
	// behind a queued root, and one task finishes without being read.
	for i := 0; i < 2; i++ {
		order = append(order, submitAt(t, svc, sub))
	}
	time.Sleep(time.Millisecond)
	_, nodes, _, err := svc.SubmitDAG("alice", []dag.NodeSpec{
		{Key: "root", Spec: dag.TaskSpec{Function: fnID, Endpoint: reg.EndpointID}},
		{Key: "child", Spec: dag.TaskSpec{Function: fnID, Endpoint: reg.EndpointID}, DependsOn: []string{"root"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	order = append(order, nodes["root"])
	done := submitAt(t, svc, sub)
	completeTask(svc, done, []byte("out"))
	svc.Close()

	svc2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer svc2.Close()
	// With no agent, the forwarder's orphan scan may briefly lease the
	// queue, so poll for the settled order.
	q := svc2.Store.Queue(store.TaskQueueName(string(reg.EndpointID)))
	var got []types.TaskID
	deadline := time.Now().Add(5 * time.Second)
	for {
		got = got[:0]
		for _, item := range q.Items() {
			task, err := wire.DecodeTask(item)
			if err != nil {
				t.Fatal(err)
			}
			want := 1
			if slices.Contains(reclaimed, task.ID) {
				want = 2
			}
			if task.Attempt != want {
				t.Fatalf("%s rebuilt at attempt %d, want %d", task.ID, task.Attempt, want)
			}
			got = append(got, task.ID)
		}
		if slices.Equal(got, order) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebuilt queue %v, want %v", got, order)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st, err := svc2.Status(nodes["child"]); err != nil || st != types.TaskPending {
		t.Fatalf("held DAG node status = %s (%v), want %s", st, err, types.TaskPending)
	}
	res, err := svc2.ResultFor(context.Background(), "alice", done, 0)
	if err != nil || string(res.Output) != "out" {
		t.Fatalf("unread result = %+v, %v; want the pre-restart output", res, err)
	}
}
