// Package dag is the service's dependency-graph scheduler: the state
// machine behind server-side task composition. A submission may
// declare a whole graph of tasks whose inputs are *future task ids* —
// each node names the nodes (or already-submitted external tasks) it
// depends on, the graph is validated acyclic up front, and the
// service releases a node only when every parent has landed a
// terminal event. Parent outputs are bound into the child's payload
// server-side (the bytes never leave the fabric; large outputs travel
// as dataref.Refs), a failed or lost parent propagates a typed
// failure to every descendant, and an unchanged subgraph resubmitted
// with memoization on short-circuits wholesale because the bound
// payloads are deterministic functions of the parents' outputs.
//
// The package holds no locks and performs no I/O: the service drives
// it under its own mutex and journals a graph only twice, its shape at
// submit and its final state at finish. After a crash mid-workflow the
// service rebuilds each node's state, and each parent's output, from
// the task records of the graph's nodes.
package dag

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"funcx/internal/dataref"
	"funcx/internal/types"
)

// State is one node's lifecycle inside the graph.
type State string

// Node states. A node is Held until every parent lands, Released once
// handed to the placement path (or claimed for a synthetic dependency
// failure), and then terminal with the task's own outcome.
const (
	StateHeld     State = "held"
	StateReleased State = "released"
	StateSuccess  State = "success"
	StateFailed   State = "failed"
	StateLost     State = "lost"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSuccess || s == StateFailed || s == StateLost
}

// stateOf maps a task's terminal status onto a node state. Callers
// only pass terminal statuses; non-terminal input degrades to the
// default success arm.
func stateOf(st types.TaskStatus) State {
	//funcx:exhaustive funcx/internal/types.TaskStatus ignore=TaskPending,TaskQueued,TaskDispatched,TaskRunning,DAGRunning,DAGSuccess,DAGFailed
	switch st {
	case types.TaskFailed:
		return StateFailed
	case types.TaskLost:
		return StateLost
	case types.TaskSuccess:
		return StateSuccess
	default:
		return StateSuccess
	}
}

// TaskSpec is a node's submission template: everything the service
// needs to build the real task submission at release time. The
// payload is the node's own arguments; for nodes with parents it is
// wrapped into an Envelope together with the parent outputs.
type TaskSpec struct {
	Function   types.FunctionID  `json:"function_id"`
	Endpoint   types.EndpointID  `json:"endpoint_id,omitempty"`
	Group      types.GroupID     `json:"group_id,omitempty"`
	Labels     map[string]string `json:"labels,omitempty"`
	Payload    []byte            `json:"payload,omitempty"`
	Memoize    bool              `json:"memoize,omitempty"`
	Walltime   time.Duration     `json:"walltime,omitempty"`
	MaxRetries int               `json:"max_retries,omitempty"`
	AtMostOnce bool              `json:"at_most_once,omitempty"`
}

// NodeSpec declares one node at graph submission.
type NodeSpec struct {
	// Key names the node uniquely within the graph.
	Key string
	// Spec is the submission template.
	Spec TaskSpec
	// DependsOn names parent nodes in this graph by key.
	DependsOn []string
	// Requires names already-submitted tasks outside the graph whose
	// outputs this node consumes (the SubmitSpec.DependsOn chaining
	// surface; possibly owned by other shards).
	Requires []types.TaskID
}

// Node is one task of the graph, with its live state.
type Node struct {
	Key    string       `json:"key"`
	TaskID types.TaskID `json:"task_id"`
	// External marks a synthesized parent standing in for a task
	// submitted outside the graph; it has no Spec and is never
	// released — the service resolves it from the store or via the
	// cross-shard gateway.
	External  bool     `json:"external,omitempty"`
	Spec      TaskSpec `json:"spec,omitzero"`
	DependsOn []string `json:"depends_on,omitempty"`
	Children  []string `json:"children,omitempty"`
	State     State    `json:"state"`
	// Endpoint records where the node ran (terminal nodes), feeding
	// the affinity routing of its children.
	Endpoint types.EndpointID `json:"endpoint_id,omitempty"`
	// Output holds the node's inline result bytes for binding into
	// children. It is never journaled with the graph: the node's
	// terminal task record already holds it, and recovery reads it back
	// from there.
	Output []byte `json:"-"`
	// Ref is the node's output as a data reference when it exceeded
	// the inline binding limit.
	Ref *dataref.Ref `json:"ref,omitempty"`
	// Error is the serialized terminal error (failed/lost nodes).
	Error string `json:"error,omitempty"`
	// Memoized marks nodes whose result was served from the memo
	// cache without dispatch.
	Memoized    bool      `json:"memoized,omitempty"`
	ReleasedAt  time.Time `json:"released_at,omitzero"`
	CompletedAt time.Time `json:"completed_at,omitzero"`
}

// Graph is one submitted dependency graph and its live state. It is
// a plain value: the service serializes access and persistence.
type Graph struct {
	ID    types.DAGID  `json:"dag_id"`
	Owner types.UserID `json:"owner"`
	// Nodes maps node key -> node (external parents included).
	Nodes map[string]*Node `json:"nodes"`
	// Order is a deterministic topological order over every node.
	Order   []string  `json:"order"`
	Created time.Time `json:"created,omitzero"`
}

// Validation errors.
var (
	ErrEmptyGraph   = errors.New("dag: graph has no nodes")
	ErrDuplicateKey = errors.New("dag: duplicate node key")
	ErrUnknownDep   = errors.New("dag: dependency names no node in the graph")
	ErrCycle        = errors.New("dag: dependency cycle")
)

// externalKey names the synthesized node standing in for an external
// parent task: the task id itself.
func externalKey(id types.TaskID) string { return string(id) }

// New validates the node specs (unique keys, known dependencies,
// acyclic) and builds the graph with every node Held. External
// parents named via Requires are synthesized as terminal-pending
// nodes keyed by their task id.
func New(id types.DAGID, owner types.UserID, specs []NodeSpec, now time.Time) (*Graph, error) {
	if len(specs) == 0 {
		return nil, ErrEmptyGraph
	}
	g := &Graph{ID: id, Owner: owner, Nodes: make(map[string]*Node, len(specs)), Created: now}
	insertion := make([]string, 0, len(specs))
	for _, spec := range specs {
		if spec.Key == "" {
			return nil, fmt.Errorf("dag: node %d has an empty key", len(insertion))
		}
		if _, dup := g.Nodes[spec.Key]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateKey, spec.Key)
		}
		deps := append([]string(nil), spec.DependsOn...)
		for _, req := range spec.Requires {
			deps = append(deps, externalKey(req))
		}
		g.Nodes[spec.Key] = &Node{
			Key: spec.Key, Spec: spec.Spec, DependsOn: deps, State: StateHeld,
		}
		insertion = append(insertion, spec.Key)
	}
	// Synthesize external parents after real nodes so a Requires id
	// that happens to collide with a node key is caught as a dup.
	for _, spec := range specs {
		for _, req := range spec.Requires {
			key := externalKey(req)
			if ext, ok := g.Nodes[key]; ok {
				if !ext.External && ext.Key != spec.Key {
					// A graph node keyed by a task id string: reject the
					// ambiguity rather than silently aliasing it.
					return nil, fmt.Errorf("%w: %q is both a node key and an external task id", ErrDuplicateKey, key)
				}
				continue
			}
			g.Nodes[key] = &Node{Key: key, TaskID: req, External: true, State: StateHeld}
			insertion = append(insertion, key)
		}
	}
	for _, key := range insertion {
		n := g.Nodes[key]
		for _, dep := range n.DependsOn {
			parent, ok := g.Nodes[dep]
			if !ok {
				return nil, fmt.Errorf("%w: node %q depends on %q", ErrUnknownDep, key, dep)
			}
			if dep == key {
				return nil, fmt.Errorf("%w: node %q depends on itself", ErrCycle, key)
			}
			parent.Children = append(parent.Children, key)
		}
	}
	order, err := topoSort(g, insertion)
	if err != nil {
		return nil, err
	}
	g.Order = order
	return g, nil
}

// topoSort runs Kahn's algorithm over the graph, preserving insertion
// order among ready nodes so the result is deterministic.
func topoSort(g *Graph, insertion []string) ([]string, error) {
	indeg := make(map[string]int, len(insertion))
	for _, key := range insertion {
		indeg[key] = len(g.Nodes[key].DependsOn)
	}
	order := make([]string, 0, len(insertion))
	ready := make([]string, 0, len(insertion))
	for _, key := range insertion {
		if indeg[key] == 0 {
			ready = append(ready, key)
		}
	}
	for len(ready) > 0 {
		key := ready[0]
		ready = ready[1:]
		order = append(order, key)
		for _, child := range g.Nodes[key].Children {
			indeg[child]--
			if indeg[child] == 0 {
				ready = append(ready, child)
			}
		}
	}
	if len(order) != len(insertion) {
		return nil, fmt.Errorf("%w: %d of %d nodes unreachable from the roots",
			ErrCycle, len(insertion)-len(order), len(insertion))
	}
	return order, nil
}

// Node returns the node registered under key (nil when absent).
func (g *Graph) Node(key string) *Node { return g.Nodes[key] }

// Ready reports whether the node is Held with every parent successful.
func (g *Graph) Ready(key string) bool {
	n := g.Nodes[key]
	if n == nil || n.State != StateHeld {
		return false
	}
	for _, dep := range n.DependsOn {
		if g.Nodes[dep].State != StateSuccess {
			return false
		}
	}
	return true
}

// MarkReleased claims a Held node for placement, recording when.
func (g *Graph) MarkReleased(key string, at time.Time) {
	if n := g.Nodes[key]; n != nil && n.State == StateHeld {
		n.State = StateReleased
		n.ReleasedAt = at
	}
}

// Outcome is one node's terminal result as observed by the service.
type Outcome struct {
	Status   types.TaskStatus
	Endpoint types.EndpointID
	// Output/Ref carry the successful result for child binding:
	// inline bytes, or a data reference past the inline limit.
	Output   []byte
	Ref      *dataref.Ref
	Err      string
	Memoized bool
	At       time.Time
}

// ChildFailure names a child claimed for a typed dependency failure.
type ChildFailure struct {
	Key          string
	TaskID       types.TaskID
	Parent       string
	ParentStatus types.TaskStatus
}

// Transition is the set of actions one completion unlocked. The graph
// has already claimed the named children (Held → Released); the
// caller performs the placements and synthetic failures outside its
// lock, each of which re-enters Complete when its own terminal lands.
type Transition struct {
	// Release lists children whose parents all succeeded, in
	// deterministic (topological) order.
	Release []string
	// Fail lists children claimed for a typed dependency failure.
	Fail []ChildFailure
	// Done reports the whole graph terminal (external parents aside).
	Done bool
}

// Complete records a node's terminal outcome and claims the children
// it unlocks. Completing an already-terminal node is a no-op (the
// recovery path may re-apply outcomes observed before a crash).
func (g *Graph) Complete(key string, o Outcome) Transition {
	n := g.Nodes[key]
	if n == nil || n.State.Terminal() {
		return Transition{Done: g.Done()}
	}
	n.State = stateOf(o.Status)
	n.Endpoint = o.Endpoint
	n.Output = o.Output
	n.Ref = o.Ref
	n.Error = o.Err
	n.Memoized = o.Memoized
	n.CompletedAt = o.At
	var tr Transition
	if n.State == StateSuccess {
		// Deterministic child order: walk the global topological order
		// rather than the per-node children list.
		for _, child := range g.Order {
			if g.Ready(child) && contains(n.Children, child) {
				g.MarkReleased(child, o.At)
				tr.Release = append(tr.Release, child)
			}
		}
	} else {
		for _, child := range n.Children {
			if c := g.Nodes[child]; c != nil && c.State == StateHeld {
				g.MarkReleased(child, o.At)
				tr.Fail = append(tr.Fail, ChildFailure{
					Key: child, TaskID: c.TaskID, Parent: key, ParentStatus: o.Status,
				})
			}
		}
	}
	tr.Done = g.Done()
	return tr
}

func contains(list []string, v string) bool {
	for _, s := range list {
		if s == v {
			return true
		}
	}
	return false
}

// Done reports whether every graph-owned (non-external) node is
// terminal. External parents are excluded: once every real node has
// retired, an unresolved external parent can no longer matter.
func (g *Graph) Done() bool {
	for _, n := range g.Nodes {
		if !n.External && !n.State.Terminal() {
			return false
		}
	}
	return true
}

// Status summarizes the graph as a task-like lifecycle state:
// "success" when every node succeeded, "failed" once done with any
// failed or lost node, "running" otherwise.
func (g *Graph) Status() types.TaskStatus {
	if !g.Done() {
		return types.TaskRunning
	}
	for _, n := range g.Nodes {
		if !n.External && n.State != StateSuccess {
			return types.TaskFailed
		}
	}
	return types.TaskSuccess
}

// Counts tallies graph-owned nodes by state.
func (g *Graph) Counts() map[State]int {
	counts := make(map[State]int)
	for _, n := range g.Nodes {
		if !n.External {
			counts[n.State]++
		}
	}
	return counts
}

// BindPayload builds the released node's submission payload: the
// node's declared args when it has no parents, else an Envelope
// wrapping the args with one input per parent in dependency order.
// The envelope is a deterministic function of the parent outputs and
// the node's own args — no task ids, no timestamps — so memoization
// composes across resubmitted subgraphs.
func (g *Graph) BindPayload(key string) ([]byte, error) {
	n := g.Nodes[key]
	if n == nil {
		return nil, fmt.Errorf("dag: unknown node %q", key)
	}
	if len(n.DependsOn) == 0 {
		return n.Spec.Payload, nil
	}
	env := Envelope{Args: n.Spec.Payload, Inputs: make([]Input, 0, len(n.DependsOn))}
	for _, dep := range n.DependsOn {
		parent := g.Nodes[dep]
		if parent == nil || parent.State != StateSuccess {
			return nil, fmt.Errorf("dag: node %q parent %q has no successful output", key, dep)
		}
		env.Inputs = append(env.Inputs, Input{Key: dep, Output: parent.Output, Ref: parent.Ref})
	}
	return env.Encode(), nil
}

// Envelope is the payload bound to a node with parents: the node's
// own args plus the parent outputs, in dependency order.
type Envelope struct {
	Args   []byte  `json:"args,omitempty"`
	Inputs []Input `json:"inputs"`
}

// Input is one parent's contribution: the parent's node key and its
// output — inline bytes, or a data reference for large outputs.
type Input struct {
	Key    string       `json:"key"`
	Output []byte       `json:"output,omitempty"`
	Ref    *dataref.Ref `json:"ref,omitempty"`
}

// Encode frames the envelope. json.Marshal over fixed struct fields
// is byte-deterministic, which the memo composition depends on.
func (e *Envelope) Encode() []byte {
	b, err := json.Marshal(e)
	if err != nil {
		panic(fmt.Sprintf("dag: marshaling envelope: %v", err))
	}
	return b
}

// DecodeEnvelope unframes a bound payload.
func DecodeEnvelope(data []byte) (*Envelope, error) {
	var e Envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("dag: decoding envelope: %w", err)
	}
	return &e, nil
}

// DependencyCode is the typed error code carried by the synthetic
// failure bound to descendants of a failed or lost parent.
const DependencyCode = "dag_dependency_failed"

// DependencyError is the structured error stored as a descendant's
// result when a parent fails: the child's terminal status is "failed"
// with this document as its serialized error, so SDK futures resolve
// (never hang) and callers can tell a propagated failure from the
// node's own.
type DependencyError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// DAGID names the graph the failure propagated through.
	DAGID types.DAGID `json:"dag_id"`
	// Parent is the failing parent's node key (an external parent's
	// task id for chained submissions).
	Parent string `json:"parent"`
	// ParentStatus is the parent's terminal status ("failed"/"lost").
	ParentStatus types.TaskStatus `json:"parent_status"`
}

// NewDependencyError builds the typed failure for one claimed child.
func NewDependencyError(dagID types.DAGID, f ChildFailure) *DependencyError {
	return &DependencyError{
		Code:         DependencyCode,
		Message:      fmt.Sprintf("dag %s: parent %q landed %s", dagID.Short(), f.Parent, f.ParentStatus),
		DAGID:        dagID,
		Parent:       f.Parent,
		ParentStatus: f.ParentStatus,
	}
}

// JSON renders the error as its serialized form.
func (e *DependencyError) JSON() string {
	b, err := json.Marshal(e)
	if err != nil {
		panic(fmt.Sprintf("dag: marshaling dependency error: %v", err))
	}
	return string(b)
}

// ParseDependencyError recognizes a serialized DependencyError.
func ParseDependencyError(s string) (*DependencyError, bool) {
	var e DependencyError
	if json.Unmarshal([]byte(s), &e) != nil || e.Code != DependencyCode {
		return nil, false
	}
	return &e, true
}
