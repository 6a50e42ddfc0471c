package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"funcx/internal/api"
	"funcx/internal/auth"
	"funcx/internal/core"
	"funcx/internal/fx"
	"funcx/internal/sdk"
	"funcx/internal/service"
	"funcx/internal/types"
)

// user owns the endpoint and submits every task.
const user types.UserID = "bench"

// env is one booted fabric: the service, one endpoint of 1 manager × 4
// prewarmed workers with batch dispatch on, the echo function, the load
// client whose HTTP traffic the transport wrapper sees, and an observer
// for the program's own surfaces, whose traffic it does not.
type env struct {
	fab    *core.Fabric
	ep     *core.Endpoint
	client *sdk.Client
	httpT  *http.Transport
	tr     *transport
	fn     types.FunctionID
	token  string
	obs    *sdk.Client
	dir    string
}

// boot brings up a fabric for the workload. dataDir, when set, makes
// the service durable (Config.DataDir) with its journal there.
func boot(dataDir string) (*env, error) {
	cfg := service.Config{}
	if dataDir != "" {
		cfg.DataDir = dataDir
	}
	fab, err := core.NewFabric(core.FabricConfig{Service: cfg})
	if err != nil {
		return nil, fmt.Errorf("booting service: %w", err)
	}
	e := &env{fab: fab, dir: dataDir}
	e.ep, err = fab.AddEndpoint(core.EndpointOptions{
		Name: "bench", Owner: user,
		Managers: 1, WorkersPerManager: 4, PrewarmWorkers: 4,
		BatchDispatch: true,
	})
	if err != nil {
		e.close()
		return nil, fmt.Errorf("adding endpoint: %w", err)
	}
	if err := e.ep.WaitForWorkers(1, 10*time.Second); err != nil {
		e.close()
		return nil, err
	}
	e.token = fab.Service.MintUserToken(user, auth.ScopeAll)
	e.httpT = &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute}
	e.tr = newTransport(e.httpT)
	e.client = sdk.New(fab.BaseURL, e.token).WithHTTPClient(&http.Client{Transport: e.tr, Timeout: time.Minute})
	e.obs = sdk.New(fab.BaseURL, e.token)
	e.fn, err = e.client.RegisterFunction(context.Background(), "echo", fx.BodyEcho, types.ContainerSpec{}, nil)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("registering echo: %w", err)
	}
	return e, nil
}

func (e *env) close() {
	if e.client != nil {
		e.client.Close()
	}
	if e.obs != nil {
		e.obs.Close()
	}
	if e.httpT != nil {
		e.httpT.CloseIdleConnections()
	}
	e.fab.Close()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// stageHists reads the funcx_task_stage_seconds histograms from
// GET /v1/metrics.
func (e *env) stageHists(ctx context.Context) (map[string]hist, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.fab.BaseURL+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+e.token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return stageHists(string(body))
}

// timelines fetches the retained, finished timelines of ids through
// GET /v1/tasks/{id}/trace; tasks whose timeline was evicted are
// skipped.
func (e *env) timelines(ctx context.Context, ids []types.TaskID) []*api.TaskTraceResponse {
	out := make([]*api.TaskTraceResponse, 0, len(ids))
	for _, id := range ids {
		tr, err := e.obs.TaskTrace(ctx, id)
		if err != nil || !tr.Done || tr.Decomposition == nil {
			continue
		}
		out = append(out, tr)
	}
	return out
}

// publishedAt is the wall time a timeline's terminal event published.
func publishedAt(tr *api.TaskTraceResponse) (time.Time, bool) {
	for _, st := range tr.Stamps {
		if st.Stage == "published" {
			return tr.Start.Add(time.Duration(st.OffsetNanos)), true
		}
	}
	return time.Time{}, false
}

// walDir returns a fresh journal directory under root.
func walDir(root string, i int) (string, error) {
	dir := filepath.Join(root, fmt.Sprintf("wal-%d-%d", os.Getpid(), i))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, nil
}
