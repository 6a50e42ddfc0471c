// Server-side task composition: the service face of internal/dag.
//
// A client submits a whole dependency graph in one call (or chains a
// single task onto earlier ones via SubmitSpec.DependsOn); from then
// on every edge is traversed inside the fabric. The service holds the
// graph, releases a child the instant its last parent lands a terminal
// event, binds the parents' outputs into the child's payload without
// the bytes ever leaving the service (large outputs become
// dataref.Refs), routes the child with affinity toward where its
// parents ran, and propagates a failed or lost parent to every
// descendant as a typed dag_dependency_failed result — so no future
// ever hangs. A graph is journaled twice (dagsHash): its shape at
// submit and its final node states at finish. In between, each node's
// progress lives only in its task record — none while held, live once
// released, the output in its result once landed — so recovery works
// every node's state out of the records, and a record the graph binds
// stays pinned in the journal until the graph finishes.
//
// Lock order: dagMu is taken alone, over s.mu, or under recMu (a
// terminal transition applies the graph step inside its critical
// section), never across a record read or transition — those take
// recMu, which would invert the order. Every completion therefore
// *collects* the releases and synthetic failures it unlocked under
// dagMu and executes them after the unlock; each executed action
// retires or places its own node through transition, recursing one
// graph level at a time.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"time"

	"funcx/internal/api"
	"funcx/internal/auth"
	"funcx/internal/dag"
	"funcx/internal/dataref"
	"funcx/internal/registry"
	"funcx/internal/shard"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// dagRef locates one graph node waiting on a task id. A slice of these
// hangs off every pending task in dagByTask: one external parent may
// feed several graphs, and the completion hook fires once per stored
// result, so a single firing must transition all of them.
type dagRef struct {
	id  types.DAGID
	key string
}

// dagRelease carries everything needed to place one claimed node
// outside the graph lock: the payload is already bound (parent outputs
// inlined or ref'd), the task id pre-minted, and the preferred endpoint
// chosen from where the parents ran.
type dagRelease struct {
	dagID   types.DAGID
	key     string
	taskID  types.TaskID
	owner   types.UserID
	spec    dag.TaskSpec
	payload []byte
	prefer  types.EndpointID
	// dependent marks a release driven by parent completions (an
	// internal edge traversed server-side), as opposed to a root.
	dependent bool
}

// dagFail carries one claimed child's synthetic terminal failure.
type dagFail struct {
	taskID  types.TaskID
	owner   types.UserID
	errJSON string
	// dep marks a typed dependency propagation (counted separately
	// from binding/validation failures).
	dep bool
}

// dagDone captures a newly finished graph for its lifecycle event.
type dagDone struct {
	id     types.DAGID
	owner  types.UserID
	status types.TaskStatus
}

// defaultDAGInlineLimit is the largest parent output bound inline into
// a child payload; larger outputs register in the dataref fabric and
// travel as references (§4.6: large data moves out of band).
const defaultDAGInlineLimit = 64 << 10

// dagInlineLimit resolves Config.DAGInlineLimit (0 = default, negative
// = always inline).
func (s *Service) dagInlineLimit() int {
	if s.cfg.DAGInlineLimit != 0 {
		return s.cfg.DAGInlineLimit
	}
	return defaultDAGInlineLimit
}

// mintDAGID mints a graph id this shard owns on the ring, so any front
// door can route GET /v1/dags/{id} to the owner from the id alone.
func (s *Service) mintDAGID() types.DAGID {
	if s.cfg.Ring == nil {
		return types.NewDAGID()
	}
	return shard.MintAligned(s.cfg.Ring, types.NewDAGID, shard.DAGKey)
}

// SubmitDAG validates, registers, journals, and starts one dependency
// graph, returning its id, the pre-minted task id of every node, and
// the keys served wholesale from the memo cache at submit time. Every
// node is validated (payload limit, invocation rights, target shape)
// before anything is stored, so a bad node rejects the whole graph.
func (s *Service) SubmitDAG(owner types.UserID, specs []dag.NodeSpec) (types.DAGID, map[string]types.TaskID, []string, error) {
	for _, ns := range specs {
		if _, err := s.prepare(owner, submissionOfSpec(ns.Spec, nil)); err != nil {
			return "", nil, nil, fmt.Errorf("dag node %q: %w", ns.Key, err)
		}
	}
	id := s.mintDAGID()
	now := time.Now()
	g, err := dag.New(id, owner, specs, now)
	if err != nil {
		return "", nil, nil, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
	}
	tasks := make(map[string]types.TaskID, len(specs))
	for _, key := range g.Order {
		if n := g.Node(key); !n.External {
			n.TaskID = s.mintTaskID()
			tasks[key] = n.TaskID
		}
	}

	// The shape is journaled once, before any node record exists:
	// recovery reads a node without a record image as held.
	if s.Store.Persistent() {
		s.Store.Hash(dagsHash).Set(string(id), wire.EncodeDAG(g))
	}
	// Held (pending) records, in memory only, land before the graph goes
	// live: status and wait surfaces must recognize every node id the
	// moment the response returns.
	for _, key := range g.Order {
		if n := g.Node(key); !n.External {
			s.transition(n.TaskID, types.TaskPending, change{owner: owner, dag: id})
		}
	}
	s.dagMu.Lock()
	s.dags[id] = g
	for _, key := range g.Order {
		n := g.Node(key)
		s.dagByTask[n.TaskID] = append(s.dagByTask[n.TaskID], dagRef{id: id, key: key})
	}
	s.dagMu.Unlock()
	s.mu.Lock()
	s.dagsSubmitted++
	s.dagNodes += int64(len(tasks))
	s.mu.Unlock()

	s.publishDAG(owner, types.TaskEvent{
		TaskID: types.TaskID(id), Status: types.DAGRunning, DAGID: id, Time: now,
	})

	// External parents first (their results may already be stored, in
	// which case the children release below), then the roots. Both may
	// cascade synchronously through the memo cache: a fully memoized
	// graph completes before this call returns.
	for _, key := range g.Order {
		if g.Node(key).External {
			s.resolveExternalParent(id, key)
		}
	}
	s.releaseDAGReady(id)

	var memoized []string
	s.dagMu.Lock()
	for _, key := range g.Order {
		if n := g.Node(key); !n.External && n.Memoized {
			memoized = append(memoized, key)
		}
	}
	s.dagMu.Unlock()
	s.mu.Lock()
	s.dagMemoHits += int64(len(memoized))
	s.mu.Unlock()
	s.log.Info("dag submitted",
		"dag_id", string(id), "owner", string(owner),
		"nodes", len(tasks), "memoized", len(memoized))
	return id, tasks, memoized, nil
}

// SubmitChained is the SubmitSpec.DependsOn surface: one task whose
// inputs are earlier task ids, modeled as a single-node graph with
// external parents. Returns the node's task id and whether it was
// served from the memo cache at submit time.
func (s *Service) SubmitChained(owner types.UserID, sub Submission, deps []types.TaskID) (types.TaskID, types.DAGID, bool, error) {
	spec := dag.NodeSpec{
		Key: "task",
		Spec: dag.TaskSpec{
			Function: sub.FunctionID, Endpoint: sub.EndpointID, Group: sub.GroupID,
			Labels: sub.Labels, Payload: sub.Payload, Memoize: sub.Memoize,
			Walltime: sub.Walltime, MaxRetries: sub.MaxRetries, AtMostOnce: sub.AtMostOnce,
		},
		Requires: deps,
	}
	id, tasks, memoized, err := s.SubmitDAG(owner, []dag.NodeSpec{spec})
	if err != nil {
		return "", "", false, err
	}
	return tasks["task"], id, len(memoized) > 0, nil
}

// submissionOfSpec builds the service submission for a node, with the
// bound payload substituted for the template's own.
func submissionOfSpec(spec dag.TaskSpec, payload []byte) Submission {
	if payload == nil {
		payload = spec.Payload
	}
	return Submission{
		FunctionID: spec.Function, EndpointID: spec.Endpoint, GroupID: spec.Group,
		Labels: spec.Labels, Payload: payload, Memoize: spec.Memoize,
		Walltime: spec.Walltime, MaxRetries: spec.MaxRetries, AtMostOnce: spec.AtMostOnce,
	}
}

// DAGStatus reports a graph's live per-node state in topological
// order. Owner-only (empty actor skips the check for trusted
// in-process callers).
func (s *Service) DAGStatus(actor types.UserID, id types.DAGID) (*api.DAGStatusResponse, error) {
	s.dagMu.Lock()
	defer s.dagMu.Unlock()
	g := s.dags[id]
	if g == nil || (actor != "" && g.Owner != actor) {
		return nil, fmt.Errorf("%w: dag %s", registry.ErrNotFound, id)
	}
	resp := &api.DAGStatusResponse{DAGID: id, Status: g.Status(), Nodes: make([]api.DAGNodeStatus, 0, len(g.Order))}
	for _, key := range g.Order {
		n := g.Node(key)
		ns := api.DAGNodeStatus{
			Key: key, TaskID: n.TaskID, State: string(n.State), External: n.External,
			EndpointID: n.Endpoint, Error: n.Error, Memoized: n.Memoized,
		}
		if n.Ref != nil {
			ns.Ref = n.Ref.String()
		}
		resp.Nodes = append(resp.Nodes, ns)
	}
	return resp, nil
}

// DAGsActive counts graphs still holding or running nodes.
func (s *Service) DAGsActive() int {
	s.dagMu.Lock()
	defer s.dagMu.Unlock()
	active := 0
	for _, g := range s.dags {
		if !g.Done() {
			active++
		}
	}
	return active
}

// applyDAGResult is the graph step of a terminal transition (and of
// an external parent resolving): when the finished task feeds any
// registered graph, it applies the outcome to every waiting graph and
// returns the graph id to stamp on the terminal event plus the actions
// to execute *after* the transition unlocks — each action places or
// retires a node through transition, so they must run outside recMu
// and dagMu. Nothing is journaled here: the task's terminal record
// already holds the outcome. Returns ("", nil) for tasks no graph is
// waiting on.
func (s *Service) applyDAGResult(id types.TaskID, status types.TaskStatus, endpoint types.EndpointID, value []byte) (types.DAGID, func()) {
	s.dagMu.Lock()
	refs := s.dagByTask[id]
	if len(refs) == 0 {
		s.dagMu.Unlock()
		return "", nil
	}
	delete(s.dagByTask, id)
	outcome := s.dagOutcome(id, status, endpoint, value)

	var rels []dagRelease
	var fails []dagFail
	var dones []dagDone
	for _, ref := range refs {
		g := s.dags[ref.id]
		if g == nil {
			continue
		}
		r, f, done := s.completeLocked(g, ref.key, outcome)
		rels = append(rels, r...)
		fails = append(fails, f...)
		if done != nil {
			dones = append(dones, *done)
		}
	}
	dagID := refs[0].id
	s.dagMu.Unlock()

	return dagID, func() { s.executeDAGActions(rels, fails, dones) }
}

// dagOutcome decodes a finished task's encoded result into its graph
// outcome. A successful output past the inline limit is registered in
// the dataref fabric and travels as a reference (caller holds dagMu).
func (s *Service) dagOutcome(id types.TaskID, status types.TaskStatus, endpoint types.EndpointID, value []byte) dag.Outcome {
	outcome := dag.Outcome{Status: status, Endpoint: endpoint, At: time.Now()}
	res, err := wire.DecodeResult(value)
	if err != nil {
		return outcome
	}
	outcome.Err, outcome.Memoized = res.Err, res.Memoized
	if status != types.TaskSuccess {
		return outcome
	}
	outcome.Output = res.Output
	if limit := s.dagInlineLimit(); limit > 0 && len(res.Output) > limit {
		if ref, ok := s.putDataref(endpoint, id, res.Output); ok {
			outcome.Ref, outcome.Output = &ref, nil
		}
	}
	return outcome
}

// putDataref registers a large output in the dataref fabric, placed at
// the endpoint that produced it (data gravity).
func (s *Service) putDataref(endpoint types.EndpointID, id types.TaskID, output []byte) (dataref.Ref, bool) {
	host := string(endpoint)
	if host == "" {
		host = "service"
	}
	s.Datarefs.AddEndpoint(host)
	ref, err := s.Datarefs.Put(host, "dag/"+string(id), output)
	if err != nil {
		return dataref.Ref{}, false
	}
	return ref, true
}

// completeLocked applies one node outcome to its graph and converts
// the transition into executable actions (caller holds dagMu). The
// returned dagDone is non-nil when this completion newly finished the
// graph.
func (s *Service) completeLocked(g *dag.Graph, key string, o dag.Outcome) ([]dagRelease, []dagFail, *dagDone) {
	wasDone := g.Done()
	tr := g.Complete(key, o)
	var rels []dagRelease
	var fails []dagFail
	for _, child := range tr.Release {
		rel, err := s.buildReleaseLocked(g, child)
		if err != nil {
			fails = append(fails, dagFail{
				taskID: g.Node(child).TaskID, owner: g.Owner,
				errJSON: fmt.Sprintf(`{"message":%q,"dag_id":%q}`, "dag binding failed: "+err.Error(), g.ID),
			})
			continue
		}
		rels = append(rels, rel)
	}
	for _, cf := range tr.Fail {
		fails = append(fails, dagFail{
			taskID: cf.TaskID, owner: g.Owner,
			errJSON: dag.NewDependencyError(g.ID, cf).JSON(), dep: true,
		})
	}
	if tr.Done && !wasDone {
		return rels, fails, &dagDone{id: g.ID, owner: g.Owner, status: g.Status()}
	}
	return rels, fails, nil
}

// buildReleaseLocked assembles the placement of one claimed node:
// bound payload, pre-minted id, and the affinity preference — the
// parent endpoint holding the largest output, so the child lands where
// the most input bytes already are (preference, not constraint; the
// router ignores it for down members). Caller holds dagMu.
func (s *Service) buildReleaseLocked(g *dag.Graph, key string) (dagRelease, error) {
	n := g.Node(key)
	payload, err := g.BindPayload(key)
	if err != nil {
		return dagRelease{}, err
	}
	var prefer types.EndpointID
	var preferSize int64 = -1
	for _, dep := range n.DependsOn {
		p := g.Node(dep)
		if p == nil || p.Endpoint == "" {
			continue
		}
		size := int64(len(p.Output))
		if p.Ref != nil {
			size = p.Ref.Size
		}
		if size > preferSize {
			preferSize, prefer = size, p.Endpoint
		}
	}
	return dagRelease{
		dagID: g.ID, key: key, taskID: n.TaskID, owner: g.Owner,
		spec: n.Spec, payload: payload, prefer: prefer,
		dependent: len(n.DependsOn) > 0,
	}, nil
}

// executeDAGActions runs the releases, synthetic failures, and graph
// finalizations one completion unlocked. Must be called with no
// service locks held: every action transitions a node, whose terminal
// step re-enters the DAG path synchronously.
func (s *Service) executeDAGActions(rels []dagRelease, fails []dagFail, dones []dagDone) {
	for _, rel := range rels {
		s.executeRelease(rel)
	}
	for _, f := range fails {
		s.failDAGTask(f)
	}
	for _, d := range dones {
		s.finishDAG(d)
	}
}

// executeRelease places one released node through the ordinary
// submission path (validation, memoization, routing, journaling). A
// placement failure retires the node as a synthetic failure so its
// graph keeps moving and its future resolves.
func (s *Service) executeRelease(rel dagRelease) {
	if rel.dependent {
		s.mu.Lock()
		s.dagReleases++
		s.mu.Unlock()
	}
	sub := submissionOfSpec(rel.spec, rel.payload)
	p, err := s.prepare(rel.owner, sub)
	if err == nil {
		p.id = rel.taskID
		p.dagID = rel.dagID
		p.prefer = rel.prefer
		_, _, _, err = s.place(rel.owner, p, time.Now())
	}
	if err != nil {
		s.failDAGTask(dagFail{
			taskID: rel.taskID, owner: rel.owner,
			errJSON: fmt.Sprintf(`{"message":%q,"dag_id":%q}`, "dag release failed: "+err.Error(), rel.dagID),
		})
	}
}

// failDAGTask retires a claimed node with a synthetic failed result
// through the ordinary terminal transition, which publishes the
// terminal event, feeds the graph step, and wakes waiters.
func (s *Service) failDAGTask(f dagFail) {
	if f.dep {
		s.mu.Lock()
		s.dagDepFailures++
		s.mu.Unlock()
	}
	res := &types.Result{TaskID: f.taskID, Err: f.errJSON, Completed: time.Now()}
	s.transition(f.taskID, types.TaskFailed, change{owner: f.owner, result: res})
}

// publishDAG puts one graph-level lifecycle event (DAGRunning,
// DAGSuccess, DAGFailed; TaskID carries the graph id) on the bus. Task
// events go through transition instead.
func (s *Service) publishDAG(owner types.UserID, ev types.TaskEvent) {
	s.publish(owner, ev)
}

// finishDAG publishes a graph's lifecycle event, journals its final
// node states (the graph's one rewrite), and releases what the graph
// held: its datarefs, its routing refs, its journaled cross-shard
// parents and the pins on its records, which deletes the read marks of
// records the client already read.
func (s *Service) finishDAG(d dagDone) {
	s.mu.Lock()
	s.dagsCompleted++
	s.mu.Unlock()
	status := types.DAGSuccess
	if d.status != types.TaskSuccess {
		status = types.DAGFailed
	}
	s.publishDAG(d.owner, types.TaskEvent{
		TaskID: types.TaskID(d.id), Status: status, DAGID: d.id, Time: time.Now(),
	})
	var pinned []types.TaskID
	s.dagMu.Lock()
	s.dagDoneAt[d.id] = time.Now()
	if g := s.dags[d.id]; g != nil {
		if s.Store.Persistent() {
			s.Store.Hash(dagsHash).Set(string(d.id), wire.EncodeDAG(g))
		}
		for _, key := range g.Order {
			n := g.Node(key)
			if n.Ref != nil {
				s.Datarefs.Delete(*n.Ref)
			}
			if n.External && !n.State.Terminal() {
				// An unresolved external parent no longer matters: drop
				// this graph's routing ref so the entry cannot leak.
				s.dropTaskRefLocked(n.TaskID, d.id)
			}
			if !s.remoteTask(n.TaskID) {
				pinned = append(pinned, n.TaskID)
			} else if s.Store.Persistent() {
				s.Store.Hash(dagParentsHash).Del(parentKey(d.id, n.TaskID))
			}
		}
	}
	s.dagMu.Unlock()
	for _, id := range pinned {
		s.transition(id, recordUnpin, change{owner: d.owner, dag: d.id})
	}
	s.log.Info("dag finished", "dag_id", string(d.id), "status", string(status))
}

// evictFinishedDAGs periodically drops finished graphs that have been
// queryable past cfg.DAGRetention, so a long-lived shard's DAG table
// (and its journaled dag records) stays bounded by the active set plus
// one retention window of history. An evicted id thereafter answers
// GET /v1/dags/{id} with 404, exactly like an id that never existed.
func (s *Service) evictFinishedDAGs() {
	interval := max(s.cfg.DAGRetention/4, time.Second)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.sweepFinishedDAGs(time.Now().Add(-s.cfg.DAGRetention))
		case <-s.ctx.Done():
			return
		}
	}
}

// sweepFinishedDAGs evicts every graph that finished before cutoff:
// the in-memory graph, any residual routing refs, and its journal
// entry (so a later recovery does not resurrect it). Returns how many
// graphs were evicted.
func (s *Service) sweepFinishedDAGs(cutoff time.Time) int {
	dagsH := s.Store.Hash(dagsHash)
	s.dagMu.Lock()
	evicted := 0
	for id, done := range s.dagDoneAt {
		if !done.Before(cutoff) {
			continue
		}
		if g := s.dags[id]; g != nil {
			for _, key := range g.Order {
				s.dropTaskRefLocked(g.Node(key).TaskID, id)
			}
		}
		delete(s.dags, id)
		delete(s.dagDoneAt, id)
		dagsH.Del(string(id))
		evicted++
	}
	s.dagMu.Unlock()
	if evicted > 0 {
		s.mu.Lock()
		s.dagsEvicted += int64(evicted)
		s.mu.Unlock()
		s.log.Debug("evicted finished dags", "count", evicted)
	}
	return evicted
}

// dropTaskRefLocked removes one graph's ref from a task's waiter list
// (caller holds dagMu).
func (s *Service) dropTaskRefLocked(id types.TaskID, dagID types.DAGID) {
	refs := s.dagByTask[id]
	kept := refs[:0]
	for _, ref := range refs {
		if ref.id != dagID {
			kept = append(kept, ref)
		}
	}
	if len(kept) == 0 {
		delete(s.dagByTask, id)
	} else {
		s.dagByTask[id] = kept
	}
}

// releaseDAGReady claims and places every currently ready node of one
// graph (used at submission for the roots, and by recovery).
func (s *Service) releaseDAGReady(id types.DAGID) {
	now := time.Now()
	var rels []dagRelease
	var fails []dagFail
	s.dagMu.Lock()
	g := s.dags[id]
	if g == nil {
		s.dagMu.Unlock()
		return
	}
	for _, key := range g.Order {
		if n := g.Node(key); n.External || !g.Ready(key) {
			continue
		}
		g.MarkReleased(key, now)
		rel, err := s.buildReleaseLocked(g, key)
		if err != nil {
			fails = append(fails, dagFail{
				taskID: g.Node(key).TaskID, owner: g.Owner,
				errJSON: fmt.Sprintf(`{"message":%q,"dag_id":%q}`, "dag binding failed: "+err.Error(), g.ID),
			})
			continue
		}
		rels = append(rels, rel)
	}
	s.dagMu.Unlock()
	s.executeDAGActions(rels, fails, nil)
}

// --- external parents ---

// externalResolveTTL bounds a cross-shard parent resolver's patience;
// externalWaitChunk is each long-poll's hold (a variable so tests can
// shorten it), and externalWaitMargin what a request may take past it
// before it is abandoned and retried.
var externalWaitChunk = 30 * time.Second

const (
	externalResolveTTL = time.Hour
	externalWaitMargin = 2 * time.Second
)

// remoteTask reports a task id another shard owns.
func (s *Service) remoteTask(id types.TaskID) bool {
	return s.sharded() && !s.servesKey(shard.TaskKey(id))
}

// parentKey names one graph's journaled cross-shard parent outcome.
func parentKey(dagID types.DAGID, id types.TaskID) string {
	return string(dagID) + "/" + string(id)
}

// resolveExternalParent resolves one graph's dependency on a task
// submitted outside the graph. A locally owned parent is pinned to the
// graph and read straight from its record (or, when still running, left
// to the terminal transition's graph step, which the submit path
// already registered for). A parent owned by another shard resolves
// from its journaled outcome after a restart, and otherwise through a
// resolver goroutine long-polling the owner over the gateway.
func (s *Service) resolveExternalParent(dagID types.DAGID, key string) {
	s.dagMu.Lock()
	g := s.dags[dagID]
	if g == nil {
		s.dagMu.Unlock()
		return
	}
	n := g.Node(key)
	if n == nil || n.State.Terminal() || g.Done() {
		s.dagMu.Unlock()
		return
	}
	taskID, owner := n.TaskID, g.Owner
	s.dagMu.Unlock()

	if s.remoteTask(taskID) {
		if value, ok := s.Store.Hash(dagParentsHash).Get(parentKey(dagID, taskID)); ok {
			if res, err := wire.DecodeResult(value); err == nil {
				s.applyParentResult(taskID, types.TerminalStatus(res.Lost, res.Failed()), value)
				return
			}
		}
		go s.pollExternalParent(dagID, key, taskID, owner)
		return
	}
	// The pin comes first, so a client read from here on leaves the
	// record in the journal for a recovery to bind. A refused pin
	// returns a foreign record's owner, or nothing at all.
	rec, ok := s.transition(taskID, recordPin, change{owner: owner, dag: dagID})
	s.dagMu.Lock()
	finished := g.Done()
	s.dagMu.Unlock()
	switch {
	case ok && finished:
		// The graph finished meanwhile, and its unpins may have run
		// before this pin: it binds nothing any more.
		s.transition(taskID, recordUnpin, change{dag: dagID})
	case !ok && rec.owner != "":
		// Ownership: a graph may only consume its own user's tasks.
		s.failExternalParent(dagID, key, taskID, "parent task not found")
	case !ok || rec.hidden(time.Now()):
		// Never submitted, or its result was already retrieved and
		// purged: there is nothing left to bind.
		if ok {
			s.transition(taskID, recordUnpin, change{dag: dagID})
		}
		s.failExternalParent(dagID, key, taskID, "unknown parent task, or its output was already retrieved and purged")
	case rec.result != nil:
		s.applyParentResult(taskID, rec.status, rec.result)
	default:
		// Still running here: its terminal transition runs the graph
		// step (the graph registered in dagByTask at submission).
	}
}

// applyParentResult feeds a resolved external parent's encoded result
// to every graph waiting on it.
func (s *Service) applyParentResult(id types.TaskID, status types.TaskStatus, value []byte) {
	if _, after := s.applyDAGResult(id, status, "", value); after != nil {
		after()
	}
}

// failExternalParent marks an external parent lost for one graph,
// propagating the typed failure to its held children through the
// ordinary completion machinery. A finished graph, whose final state
// is already journaled, is left as it is.
func (s *Service) failExternalParent(dagID types.DAGID, key string, taskID types.TaskID, why string) {
	s.dagMu.Lock()
	g := s.dags[dagID]
	if g == nil || g.Done() {
		s.dagMu.Unlock()
		return
	}
	rels, fails, done := s.completeLocked(g, key, dag.Outcome{
		Status: types.TaskLost, Err: fmt.Sprintf(`{"message":%q,"task_id":%q}`, why, taskID), At: time.Now(),
	})
	s.dropTaskRefLocked(taskID, dagID)
	s.dagMu.Unlock()
	var dones []dagDone
	if done != nil {
		dones = append(dones, *done)
	}
	s.executeDAGActions(rels, fails, dones)
}

// pollExternalParent long-polls a cross-shard parent's owner over the
// gateway until the result lands, then feeds it to every waiting graph
// exactly as a local completion would. The service self-mints an
// owner-scoped token (valid fleet-wide via the shared signing key), so
// the resolver survives service restarts without any client
// credential. The owner's wait purges the parent result there —
// first-reader-wins, like any retrieval — so the result is journaled
// here, once per waiting graph, before it is applied.
func (s *Service) pollExternalParent(dagID types.DAGID, key string, taskID types.TaskID, owner types.UserID) {
	token := s.Authority.Mint(owner, externalResolveTTL, auth.ScopeRun)
	target := s.keyOwner(shard.TaskKey(taskID))
	deadline := time.Now().Add(externalResolveTTL)
	for s.ctx.Err() == nil && time.Now().Before(deadline) {
		res, retry := s.waitRemoteTask(target, token, taskID)
		if res != nil {
			value := wire.EncodeResult(res)
			if s.Store.Persistent() {
				s.dagMu.Lock()
				for _, ref := range s.dagByTask[taskID] {
					s.Store.Hash(dagParentsHash).Set(parentKey(ref.id, taskID), value)
				}
				s.dagMu.Unlock()
			}
			s.applyParentResult(taskID, types.TerminalStatus(res.Lost, res.Failed()), value)
			return
		}
		if !retry {
			s.failExternalParent(dagID, key, taskID, "parent task not found on owner shard")
			return
		}
		select {
		case <-time.After(time.Second):
		case <-s.ctx.Done():
			return
		}
	}
	if s.ctx.Err() == nil {
		s.failExternalParent(dagID, key, taskID, "cross-shard parent unresolved before deadline")
	}
}

// waitRemoteTask issues one blocking wait against the parent's owner
// shard, returning the result when it landed, or retry=true when the
// task is still pending (or the shard was unreachable, e.g.
// mid-restart, or did not answer within the wait plus a margin).
func (s *Service) waitRemoteTask(target shard.Info, token string, id types.TaskID) (res *types.Result, retry bool) {
	body, err := json.Marshal(api.WaitTasksRequest{
		TaskIDs: []types.TaskID{id}, Wait: externalWaitChunk.String(),
	})
	if err != nil {
		return nil, false
	}
	ctx, cancel := context.WithTimeout(s.ctx, externalWaitChunk+externalWaitMargin)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		target.BaseURL+"/v1/tasks/wait", bytes.NewReader(body))
	if err != nil {
		return nil, false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := s.proxyClient.Do(req)
	if err != nil {
		return nil, true
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		return nil, true
	}
	var out api.WaitTasksResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, true
	}
	for _, rr := range out.Results {
		if rr.TaskID == id {
			res := rr.Result()
			res.Completed = time.Now()
			return res, false
		}
	}
	return nil, true
}

// --- crash recovery (called from recovery.go) ---

// recoverDAGs rebuilds the graph table once the forwarders are up. A
// finished graph loads as its final entry. An unfinished one loads as
// its shape, and each node's state comes from its task record, pinned
// to the graph again:
//   - no image: held, with its in-memory pending record recreated. It is
//     released once every parent succeeded, and failed with the typed
//     dependency error once any parent failed;
//   - queued, dispatched or running: released, left to normal delivery;
//   - terminal: its outcome is applied — output (a large one registered
//     in the dataref fabric again), error, memoization and endpoint. A
//     read mark counts too: the graph pinned the record before the read.
//
// A local external parent resolves from its record the same way. Every
// graph is loaded and pinned before any action runs, so a graph chained
// onto another graph's held node finds the recreated record, and no
// graph's finish unpins a record that another still binds. Remote and
// unknown external parents then resolve as at submission. The read
// marks and cross-shard outcomes that a crash between a graph's finish
// entry and its cleanup left behind are deleted.
func (s *Service) recoverDAGs(marked []types.TaskID) {
	var graphs []*dag.Graph
	for _, id := range s.Store.Hash(dagsHash).Keys() {
		data, _ := s.Store.Hash(dagsHash).Get(id)
		g, err := wire.DecodeDAG(data)
		if err != nil {
			s.log.Warn("corrupt journaled dag record dropped", "dag_id", id, "err", err)
			continue
		}
		s.dagMu.Lock()
		s.dags[g.ID] = g
		finished := g.Done()
		if finished {
			// No finishDAG is ahead of it: stamp it now so the retention
			// sweeper still evicts it one window after the restart.
			s.dagDoneAt[g.ID] = time.Now()
		}
		s.dagMu.Unlock()
		if !finished {
			graphs = append(graphs, g)
			continue
		}
		for _, key := range g.Order {
			if n := g.Node(key); s.remoteTask(n.TaskID) {
				s.Store.Hash(dagParentsHash).Del(parentKey(g.ID, n.TaskID))
			}
		}
	}

	// Records are pinned before dagMu is taken (the lock order forbids
	// taking recMu under it): every graph's own nodes first, recreating
	// the held ones, then the local external parents.
	recs := make(map[dagRef]taskRecord)
	for _, external := range []bool{false, true} {
		for _, g := range graphs {
			for _, key := range g.Order {
				n := g.Node(key)
				if n.External != external || external && s.remoteTask(n.TaskID) {
					continue
				}
				rec, ok := s.transition(n.TaskID, recordPin, change{owner: g.Owner, dag: g.ID})
				if ok {
					recs[dagRef{id: g.ID, key: key}] = rec
				} else if !external {
					s.transition(n.TaskID, types.TaskPending, change{owner: g.Owner, dag: g.ID})
				}
			}
		}
	}

	now := time.Now()
	var rels []dagRelease
	var fails []dagFail
	var dones []dagDone
	s.dagMu.Lock()
	for _, g := range graphs {
		for _, key := range g.Order {
			if rec, ok := recs[dagRef{id: g.ID, key: key}]; ok && !g.Node(key).External && rec.status != types.TaskPending {
				g.MarkReleased(key, now)
			}
		}
		for _, key := range g.Order {
			n := g.Node(key)
			rec, ok := recs[dagRef{id: g.ID, key: key}]
			if !ok || !rec.status.Terminal() {
				s.dagByTask[n.TaskID] = append(s.dagByTask[n.TaskID], dagRef{id: g.ID, key: key})
				continue
			}
			r, f, done := s.completeLocked(g, key, s.dagOutcome(n.TaskID, rec.status, rec.endpoint, rec.result))
			rels, fails = append(rels, r...), append(fails, f...)
			if done != nil {
				dones = append(dones, *done)
			}
		}
	}
	s.dagMu.Unlock()
	s.executeDAGActions(rels, fails, dones)
	for _, g := range graphs {
		for _, key := range g.Order {
			if _, ok := recs[dagRef{id: g.ID, key: key}]; !ok && g.Node(key).External {
				s.resolveExternalParent(g.ID, key)
			}
		}
		s.releaseDAGReady(g.ID)
	}
	for _, id := range marked {
		s.transition(id, recordUnpin, change{})
	}
}

// traceSampled decides whether a placement records a trace timeline
// under Config.TraceSampleRate. Deterministic by id hash — a DAG's
// nodes key on the graph id, so a workflow's tasks sample as a unit
// and a sampled graph yields a complete cross-node timeline.
func (s *Service) traceSampled(p *preparedSubmission, id types.TaskID) bool {
	rate := s.cfg.TraceSampleRate
	switch {
	case rate == 0 || rate >= 1:
		return true // unset or full: the historical sample-everything
	case rate < 0:
		return false
	}
	key := string(id)
	if p.dagID != "" {
		key = string(p.dagID)
	}
	h := fnv.New64a()
	h.Write([]byte(key)) //nolint:errcheck // hash.Write never fails
	// Top 53 bits → uniform [0,1).
	return float64(h.Sum64()>>11)/float64(uint64(1)<<53) < rate
}
