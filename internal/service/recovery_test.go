package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"funcx/internal/api"
	"funcx/internal/auth"
	"funcx/internal/store"
	"funcx/internal/types"
	"funcx/internal/wal"
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

// registerDurableEndpoint opens a durable service in dir, registers
// one endpoint, and closes the service again.
func registerDurableEndpoint(t *testing.T, cfg Config) types.EndpointID {
	t.Helper()
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	var reg api.RegisterEndpointResponse
	if code := doJSON(t, srv, svc.MintUserToken("alice", auth.ScopeAll), http.MethodPost, "/v1/endpoints",
		api.RegisterEndpointRequest{Name: "ep1"}, &reg); code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
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
// as TaskLost instead of hanging, and its undecodable lease must be
// dropped, never kept or requeued for an agent.
func TestJSONEraTaskRecordsRecoverAsLost(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{HeartbeatPeriod: 50 * time.Millisecond, DataDir: dir}
	epID := registerDurableEndpoint(t, cfg)

	// Journal two tasks with JSON frames while the service is down: one
	// dispatched (its queue entry leased), one still queued.
	frame := func(id string) []byte {
		return []byte(`{"task_id":"` + id + `","function_id":"fn-1","endpoint_id":"` + string(epID) +
			`","owner":"alice","container":{},"payload":"eA==","attempt":1}`)
	}
	st := openJournal(t, dir)
	q := st.Queue(store.TaskQueueName(string(epID)))
	for _, id := range []string{"t-leased", "t-queued"} {
		st.Hash(recordsHash).Set(id, encodeRecord(taskRecord{
			owner: "alice", endpoint: epID, status: types.TaskQueued, attempt: 1, task: frame(id),
		}))
	}
	if err := q.Push(frame("t-leased")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := q.TryPopReliable(); !ok {
		t.Fatal("could not lease the JSON-era task")
	}
	if err := q.Push(frame("t-queued")); err != nil {
		t.Fatal(err)
	}
	st.Close()

	svc2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer svc2.Close()
	// The forwarder's orphan scan may briefly lease (then drop) the
	// queued JSON frame, so only the recovered lease is checked.
	q = svc2.Store.Queue(store.TaskQueueName(string(epID)))
	for _, item := range q.Pending() {
		if bytes.Equal(item, frame("t-leased")) {
			t.Fatal("the undecodable lease survived recovery")
		}
	}
	for _, item := range q.Items() {
		if bytes.Equal(item, frame("t-leased")) {
			t.Fatal("the undecodable lease was requeued")
		}
	}
	ids := []types.TaskID{"t-leased", "t-queued"}
	for _, id := range ids {
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
