package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"funcx/internal/api"
	"funcx/internal/auth"
	"funcx/internal/dag"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// finishedGraph submits a single-node graph and lands its node, so
// the graph is journaled by SubmitDAG (its shape) and again by
// finishDAG (its final state), and stamped finished.
func finishedGraph(t *testing.T, svc *Service, fnID types.FunctionID, epID types.EndpointID) types.DAGID {
	t.Helper()
	id, tasks, _, err := svc.SubmitDAG("alice", []dag.NodeSpec{
		{Key: "only", Spec: dag.TaskSpec{Function: fnID, Endpoint: epID}},
	})
	if err != nil {
		t.Fatal(err)
	}
	completeTask(svc, tasks["only"], []byte("out"))
	svc.dagMu.Lock()
	// A residual routing ref, as a crash mid-completion can leave.
	svc.dagByTask[tasks["only"]] = append(svc.dagByTask[tasks["only"]], dagRef{id: id, key: "only"})
	svc.dagMu.Unlock()
	return id
}

// TestDAGRetentionBoundsGraphTable proves the DAG table stays bounded:
// graphs finished longer than DAGRetention ago are evicted from the
// in-memory table, their routing refs, and the journal; the eviction
// counter advances; and GET /v1/dags/{id} answers 404 afterwards.
func TestDAGRetentionBoundsGraphTable(t *testing.T) {
	svc, _, fnID, reg := durableFixtureWith(t, Config{
		HeartbeatPeriod: 50 * time.Millisecond, DAGRetention: 10 * time.Millisecond, DataDir: t.TempDir(),
	})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	token := svc.MintUserToken("alice", auth.ScopeAll)

	const n = 8
	ids := make([]types.DAGID, 0, n)
	for range n {
		ids = append(ids, finishedGraph(t, svc, fnID, reg.EndpointID))
	}

	// While inside the retention window the graphs stay queryable, and
	// journaled in their final state.
	var status api.DAGStatusResponse
	if code := doJSON(t, srv, token, "GET", "/v1/dags/"+string(ids[0]), nil, &status); code != http.StatusOK {
		t.Fatalf("GET before eviction: %d", code)
	}
	if data, ok := svc.Store.Hash(dagsHash).Get(string(ids[0])); !ok {
		t.Fatal("finished graph not journaled in dagsHash")
	} else if g, err := wire.DecodeDAG(data); err != nil || !g.Done() {
		t.Fatalf("journaled graph = %v (%v), want its final state", g, err)
	}
	if svc.sweepFinishedDAGs(time.Now().Add(-time.Hour)) != 0 {
		t.Fatal("sweep evicted graphs still inside the retention window")
	}

	// Past the window every finished graph goes, refs and journal
	// record included.
	if got := svc.sweepFinishedDAGs(time.Now()); got != n {
		t.Fatalf("sweep evicted %d graphs, want %d", got, n)
	}
	svc.dagMu.Lock()
	tableLen, refLen, doneLen := len(svc.dags), len(svc.dagByTask), len(svc.dagDoneAt)
	_, journaled := svc.Store.Hash(dagsHash).Get(string(ids[0]))
	svc.dagMu.Unlock()
	if tableLen != 0 || refLen != 0 || doneLen != 0 {
		t.Fatalf("residual DAG state after sweep: dags=%d dagByTask=%d dagDoneAt=%d", tableLen, refLen, doneLen)
	}
	if journaled {
		t.Fatal("evicted graph still journaled in dagsHash")
	}

	for _, id := range ids {
		if code := doJSON(t, srv, token, "GET", "/v1/dags/"+string(id), nil, nil); code != http.StatusNotFound {
			t.Fatalf("GET %s after eviction: %d, want 404", id, code)
		}
	}
	st := svc.StatsSnapshot()
	if st.DAGsEvicted != n {
		t.Fatalf("DAGsEvicted = %d, want %d", st.DAGsEvicted, n)
	}
}
