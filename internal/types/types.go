// Package types defines the identifiers, records, and lifecycle states
// shared by every layer of the funcX fabric: the cloud service, the
// per-endpoint forwarders, and the endpoint agent stack (agent, manager,
// worker). It has no dependencies on any other funcx package so that all
// layers can share it freely.
package types

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"time"
)

// UUID is a 128-bit random identifier rendered in the canonical
// 8-4-4-4-12 hex form, as assigned by the funcX service to functions,
// endpoints, and tasks.
type UUID string

// NewUUID returns a fresh random (version 4 style) identifier.
func NewUUID() UUID {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; treat
		// failure as unrecoverable program state.
		panic(fmt.Sprintf("types: reading random bytes: %v", err))
	}
	b[6] = (b[6] & 0x0f) | 0x40 // version 4
	b[8] = (b[8] & 0x3f) | 0x80 // RFC 4122 variant
	dst := make([]byte, 36)
	hex.Encode(dst[0:8], b[0:4])
	dst[8] = '-'
	hex.Encode(dst[9:13], b[4:6])
	dst[13] = '-'
	hex.Encode(dst[14:18], b[6:8])
	dst[18] = '-'
	hex.Encode(dst[19:23], b[8:10])
	dst[23] = '-'
	hex.Encode(dst[24:36], b[10:16])
	return UUID(dst)
}

// Short returns the first 8 hex characters, for compact logging.
func (u UUID) Short() string {
	if len(u) < 8 {
		return string(u)
	}
	return string(u[:8])
}

// Typed identifiers. They are all UUID strings underneath but distinct
// types so that a task id cannot be passed where a function id belongs.
type (
	// TaskID identifies a single invocation of a function.
	TaskID string
	// FunctionID identifies a registered function.
	FunctionID string
	// EndpointID identifies a registered endpoint.
	EndpointID string
	// UserID identifies a registered user.
	UserID string
	// ManagerID identifies a manager process on one compute node.
	ManagerID string
	// WorkerID identifies a worker within a manager.
	WorkerID string
	// BlockID identifies a provisioned block of resources (a pilot job).
	BlockID string
	// GroupID identifies an endpoint group — a named fleet of
	// endpoints the router places tasks across.
	GroupID string
	// DAGID identifies a submitted dependency graph — a workflow of
	// tasks the service releases as their parents retire (see
	// internal/dag).
	DAGID string
)

// NewTaskID returns a fresh task identifier.
func NewTaskID() TaskID { return TaskID(NewUUID()) }

// NewFunctionID returns a fresh function identifier.
func NewFunctionID() FunctionID { return FunctionID(NewUUID()) }

// NewEndpointID returns a fresh endpoint identifier.
func NewEndpointID() EndpointID { return EndpointID(NewUUID()) }

// NewGroupID returns a fresh endpoint-group identifier.
func NewGroupID() GroupID { return GroupID(NewUUID()) }

// NewDAGID returns a fresh dependency-graph identifier.
func NewDAGID() DAGID { return DAGID(NewUUID()) }

// Short returns the first 8 characters, for compact logging.
func (d DAGID) Short() string { return UUID(d).Short() }

// TaskStatus is the lifecycle state of a task as tracked by the service.
type TaskStatus string

// Task lifecycle states, in the order a healthy task passes through them.
const (
	// TaskPending means the task is stored but not yet queued for an
	// endpoint (transient inside the service).
	TaskPending TaskStatus = "pending"
	// TaskQueued means the task id sits in the endpoint's Redis-style
	// task queue awaiting a live agent.
	TaskQueued TaskStatus = "queued"
	// TaskDispatched means the forwarder has shipped the task to the
	// endpoint agent.
	TaskDispatched TaskStatus = "dispatched"
	// TaskRunning means a worker has begun executing the task.
	TaskRunning TaskStatus = "running"
	// TaskSuccess means the task completed and its result is stored.
	TaskSuccess TaskStatus = "success"
	// TaskFailed means execution raised an error; the serialized error
	// is stored in place of a result.
	TaskFailed TaskStatus = "failed"
	// TaskLost means the delivery layer gave up on the task: its retry
	// budget is exhausted, or it was submitted at-most-once and its
	// endpoint was lost mid-flight. A synthetic result carrying
	// Result.Lost is stored so every retrieval surface resolves.
	TaskLost TaskStatus = "lost"
)

// DAG lifecycle states, published on the owner's event stream with
// TaskID set to the graph id. They are deliberately outside the task
// Terminal() set so task-oriented consumers (SDK streamers, waiters)
// pass them through untouched.
const (
	// DAGRunning means the graph was accepted and its roots released.
	DAGRunning TaskStatus = "dag-running"
	// DAGSuccess means every node in the graph succeeded.
	DAGSuccess TaskStatus = "dag-success"
	// DAGFailed means the graph retired with at least one failed or
	// lost node (dependency failures propagated to its descendants).
	DAGFailed TaskStatus = "dag-failed"
)

// Terminal reports whether the status is final (success, failed, or
// lost).
func (s TaskStatus) Terminal() bool {
	// Every status decides terminality explicitly: adding a status
	// without choosing a side here fails `make lint`. The DAG* values
	// are graph lifecycle markers on the event stream, deliberately
	// never terminal for the task-status machinery.
	//funcx:exhaustive funcx/internal/types.TaskStatus
	switch s {
	case TaskSuccess, TaskFailed, TaskLost:
		return true
	case TaskPending, TaskQueued, TaskDispatched, TaskRunning,
		DAGRunning, DAGSuccess, DAGFailed:
		return false
	}
	return false
}

// TaskEvent is one task lifecycle transition on its owner's event
// stream: the service publishes an event each time a task is placed
// on an endpoint queue ("queued", including failover and reclaim
// re-placements), shipped to the agent ("dispatched"), started by a
// worker ("running", relayed worker → manager → agent → forwarder),
// and retired ("success" / "failed" / "lost", carrying the result).
// Events are delivered over GET /v1/events (SSE) and drive
// POST /v1/tasks/wait.
type TaskEvent struct {
	// Seq orders the event on its owner's stream (1-based, assigned
	// by the event bus). SSE clients resume from the last seq they
	// saw via the Last-Event-ID header.
	Seq    uint64     `json:"seq,omitempty"`
	TaskID TaskID     `json:"task_id"`
	Status TaskStatus `json:"status"`
	// EndpointID is where the task was placed or ran.
	EndpointID EndpointID `json:"endpoint_id,omitempty"`
	// Result carries the wire-encoded result on terminal events, so a
	// streaming client needs no follow-up fetch. Replayed events
	// (Last-Event-ID resume) arrive without it — the replay ring does
	// not pin result bytes — and are reconciled via POST
	// /v1/tasks/wait.
	Result []byte `json:"result,omitempty"`
	// DAGID marks events of tasks running as nodes of a dependency
	// graph (and the graph's own lifecycle events).
	DAGID DAGID `json:"dag_id,omitempty"`
	// Time is when the transition was observed by the service.
	Time time.Time `json:"time,omitzero"`
}

// Terminal reports whether the event retires its task.
func (e *TaskEvent) Terminal() bool { return e.Status.Terminal() }

// ContainerTech enumerates the container technologies funcX supports
// (paper §4.2): Docker for cloud/local, Singularity and Shifter for HPC
// facilities, plus the bare "none" mode that runs in the worker's own
// environment.
type ContainerTech string

// Supported container technologies.
const (
	ContainerNone        ContainerTech = "none"
	ContainerDocker      ContainerTech = "docker"
	ContainerSingularity ContainerTech = "singularity"
	ContainerShifter     ContainerTech = "shifter"
)

// ContainerSpec names the execution environment a function needs: the
// technology plus an image reference. The zero value means "no container":
// run directly in the worker's Python/Go environment.
type ContainerSpec struct {
	Tech  ContainerTech `json:"tech,omitempty"`
	Image string        `json:"image,omitempty"`
}

// IsZero reports whether no container was requested.
func (c ContainerSpec) IsZero() bool {
	return (c.Tech == "" || c.Tech == ContainerNone) && c.Image == ""
}

// Key returns a map key uniquely naming the container environment.
func (c ContainerSpec) Key() string {
	if c.IsZero() {
		return "none"
	}
	return string(c.Tech) + ":" + c.Image
}

// Task is the unit of work: one invocation of a registered function on a
// serialized payload, destined for one endpoint.
type Task struct {
	ID         TaskID        `json:"task_id"`
	FunctionID FunctionID    `json:"function_id"`
	EndpointID EndpointID    `json:"endpoint_id"`
	Owner      UserID        `json:"owner,omitempty"`
	Container  ContainerSpec `json:"container,omitempty"`
	// GroupID, when set, records that the router placed this task on
	// EndpointID on behalf of an endpoint group: if that endpoint dies
	// while the task is still queued, the task is eligible for
	// re-routing to a surviving group member.
	GroupID GroupID `json:"group_id,omitempty"`
	// Selector preserves the submission's label constraints so
	// failover re-routing honors them too.
	Selector map[string]string `json:"selector,omitempty"`
	// Payload is the serialized input arguments (see internal/serial).
	Payload []byte `json:"payload"`
	// BodyHash is the hash of the registered function body, used for
	// memoization keys and worker-side function lookup.
	BodyHash string `json:"body_hash,omitempty"`
	// Memoize requests result caching for this invocation (§4.7;
	// memoization is only used if explicitly set by the user).
	Memoize bool `json:"memoize,omitempty"`
	// BatchN, when positive, marks a user-driven batch task (the
	// fmap of §4.7): Payload packs BatchN serialized argument
	// buffers, the worker loops the function over them, and the
	// result packs BatchN output buffers.
	BatchN int `json:"batch_n,omitempty"`
	// Attempt counts executions of this task (at-least-once delivery
	// means it can exceed 1 after failures).
	Attempt int `json:"attempt,omitempty"`
	// Walltime is the caller's expected execution duration; it extends
	// the dispatch lease so a long-running task is not reclaimed as
	// lost while legitimately executing (0 = lease on heartbeat config
	// alone).
	Walltime time.Duration `json:"walltime,omitempty"`
	// MaxRetries bounds service-side redeliveries after the first
	// dispatch: a task reclaimed more than MaxRetries times lands as
	// TaskLost (0 = the service default budget, or the group's).
	MaxRetries int `json:"max_retries,omitempty"`
	// AtMostOnce opts the task out of dispatched-task reclamation for
	// non-idempotent functions: once shipped to an agent it is never
	// redelivered, and agent loss fails it fast as TaskLost.
	AtMostOnce bool `json:"at_most_once,omitempty"`
	// Submitted is when the service accepted the task.
	Submitted time.Time `json:"submitted,omitzero"`
	// Trace, when set, carries the compact trace context of a sampled
	// task through every fabric layer (see TraceContext).
	Trace *TraceContext `json:"trace,omitempty"`
}

// Traced reports whether the task is sampled for per-stage tracing.
func (t *Task) Traced() bool { return t.Trace != nil && t.Trace.Sampled }

// Result is the outcome of one task execution.
type Result struct {
	TaskID TaskID `json:"task_id"`
	// Output is the serialized return value (nil when Err != "").
	Output []byte `json:"output,omitempty"`
	// Err is a serialized execution error, empty on success.
	Err string `json:"error,omitempty"`
	// Completed is when the worker finished the task.
	Completed time.Time `json:"completed,omitzero"`
	// Timing carries the per-hop latency breakdown (Figure 4).
	Timing Timing `json:"timing,omitzero"`
	// WorkerID records which worker ran the task (diagnostics).
	WorkerID WorkerID `json:"worker_id,omitempty"`
	// Memoized marks results served from the memo cache without
	// execution.
	Memoized bool `json:"memoized,omitempty"`
	// Lost marks a synthetic result manufactured by the delivery layer
	// when it gave up on the task (retry budget exhausted, or agent
	// loss in at-most-once mode). Err carries the explanation; the
	// task's terminal status is TaskLost rather than TaskFailed.
	Lost bool `json:"lost,omitempty"`
	// Trace carries the endpoint-side stage deltas of a sampled task
	// back to the service (see TraceDeltas).
	Trace *TraceDeltas `json:"trace,omitempty"`
}

// Failed reports whether the result carries an execution error.
func (r *Result) Failed() bool { return r.Err != "" }

// TerminalStatus maps a result's lost and failed marks to its task's
// terminal status; lost wins over failed.
func TerminalStatus(lost, failed bool) TaskStatus {
	switch {
	case lost:
		return TaskLost
	case failed:
		return TaskFailed
	default:
		return TaskSuccess
	}
}

// Timing is the per-hop latency breakdown of one task, mirroring the
// instrumentation of paper Figure 4:
//
//	TS — web-service time (auth, store in Redis, enqueue)
//	TF — forwarder time (queue pop, ship to endpoint, store result)
//	TE — endpoint time (agent + manager queuing and dispatch)
//	TW — function execution time in the worker
type Timing struct {
	TS time.Duration `json:"ts,omitempty"`
	TF time.Duration `json:"tf,omitempty"`
	TE time.Duration `json:"te,omitempty"`
	TW time.Duration `json:"tw,omitempty"`
}

// Total returns the sum of all recorded components.
func (t Timing) Total() time.Duration { return t.TS + t.TF + t.TE + t.TW }

// Add returns the component-wise sum of two breakdowns.
func (t Timing) Add(o Timing) Timing {
	return Timing{TS: t.TS + o.TS, TF: t.TF + o.TF, TE: t.TE + o.TE, TW: t.TW + o.TW}
}

// Scale returns the breakdown divided by n (for averaging).
func (t Timing) Scale(n int) Timing {
	if n <= 0 {
		return t
	}
	d := time.Duration(n)
	return Timing{TS: t.TS / d, TF: t.TF / d, TE: t.TE / d, TW: t.TW / d}
}

// TraceContext is the compact trace context a sampled task carries
// through the fabric (service → forwarder → agent → manager → worker).
// It travels inside the task frame so every layer can tell, without a
// service round trip, whether the task's lifecycle should be stamped.
type TraceContext struct {
	// Sampled marks the task for per-stage latency tracing: the
	// service records a timeline on its own monotonic clock, and the
	// endpoint stack measures local stage deltas shipped back on the
	// result (TraceDeltas), so cross-machine clock skew never enters
	// a span.
	Sampled bool `json:"sampled,omitempty"`
	// TraceID is the 32-hex-char OpenTelemetry trace id the service
	// derived for this task (keyed by graph id for DAG nodes, task id
	// otherwise), propagated so endpoint-side log records correlate
	// with the service's exported spans by one grep.
	TraceID string `json:"trace_id,omitempty"`
}

// TraceDeltas are the endpoint-side stage durations of one traced
// task. Each component is measured as a local monotonic delta on the
// machine that owns the stage — never as a wall-clock timestamp — and
// shipped back with the result:
//
//	Exec         — function execution in the worker (== Timing.TW)
//	ManagerQueue — manager accept → worker pickup on the node
//	AgentQueue   — agent time outside the manager (queue + scheduling)
type TraceDeltas struct {
	Exec         time.Duration `json:"exec,omitempty"`
	ManagerQueue time.Duration `json:"manager_queue,omitempty"`
	AgentQueue   time.Duration `json:"agent_queue,omitempty"`
}

// Function is the registry record for a registered function (paper §3).
type Function struct {
	ID    FunctionID `json:"function_id"`
	Name  string     `json:"name"`
	Owner UserID     `json:"owner"`
	// Body is the serialized function body. In this reproduction it is
	// the registered source text whose hash selects a Go closure in the
	// worker's function runtime.
	Body []byte `json:"body"`
	// BodyHash is the SHA-256 of Body, assigned at registration.
	BodyHash string `json:"body_hash"`
	// Container optionally pins an execution environment.
	Container ContainerSpec `json:"container,omitempty"`
	// SharedWith lists users allowed to invoke the function in
	// addition to the owner ("*" shares publicly).
	SharedWith []UserID `json:"shared_with,omitempty"`
	// Version increments on each update by the owner.
	Version int `json:"version"`
	// Registered is the registration time.
	Registered time.Time `json:"registered,omitzero"`
}

// InvocableBy reports whether uid may invoke the function.
func (f *Function) InvocableBy(uid UserID) bool {
	if uid == f.Owner {
		return true
	}
	for _, s := range f.SharedWith {
		if s == uid || s == "*" {
			return true
		}
	}
	return false
}

// User is the registry record for a registered user identity (the
// stand-in for a Globus Auth federated identity).
type User struct {
	ID UserID `json:"user_id"`
	// Name is a display name.
	Name string `json:"name,omitempty"`
	// Identity names the upstream identity provider identity
	// (e.g. "institution", "google", "orcid").
	Identity string `json:"identity,omitempty"`
	// Registered is the registration time.
	Registered time.Time `json:"registered,omitzero"`
}

// Endpoint is the registry record for a registered endpoint (paper §3).
type Endpoint struct {
	ID          EndpointID `json:"endpoint_id"`
	Name        string     `json:"name"`
	Description string     `json:"description,omitempty"`
	Owner       UserID     `json:"owner"`
	// Public endpoints accept tasks from any authenticated user.
	Public bool `json:"public,omitempty"`
	// Labels are capability/locality tags declared at registration
	// (e.g. "gpu":"a100", "site":"anl"); the router's label-affinity
	// policy and per-task selectors match against them.
	Labels map[string]string `json:"labels,omitempty"`
	// Registered is the registration time.
	Registered time.Time `json:"registered,omitzero"`
}

// GroupMember names one endpoint inside a group, with an optional
// static placement weight (used by the weighted queue-depth policy;
// zero means "derive from live worker count").
type GroupMember struct {
	EndpointID EndpointID `json:"endpoint_id"`
	Weight     int        `json:"weight,omitempty"`
}

// EndpointGroup is the registry record for an endpoint group: a named
// fleet of endpoints submissions may target instead of a concrete
// endpoint, leaving placement to the service's router.
type EndpointGroup struct {
	ID    GroupID `json:"group_id"`
	Name  string  `json:"name"`
	Owner UserID  `json:"owner"`
	// Policy names the placement policy (see internal/router).
	Policy string `json:"policy"`
	// Public groups accept tasks from any authenticated user.
	Public bool `json:"public,omitempty"`
	// Members are the candidate endpoints, in registration order.
	Members []GroupMember `json:"members"`
	// RetryBudget is the group's default per-task redelivery budget:
	// tasks placed through the group that do not set their own
	// MaxRetries are reclaimed at most this many times before landing
	// as TaskLost (0 = the service default).
	RetryBudget int `json:"retry_budget,omitempty"`
	// Elastic, when set, opts the group into the service's fleet
	// autoscaling controller (see internal/elastic).
	Elastic *ElasticSpec `json:"elastic,omitempty"`
	// Registered is the creation time.
	Registered time.Time `json:"registered,omitzero"`
}

// HasMember reports whether id is a member of the group.
func (g *EndpointGroup) HasMember(id EndpointID) bool {
	for _, m := range g.Members {
		if m.EndpointID == id {
			return true
		}
	}
	return false
}

// EndpointStatus is a point-in-time snapshot of an endpoint reported by
// its forwarder to the service.
type EndpointStatus struct {
	ID        EndpointID `json:"endpoint_id"`
	Connected bool       `json:"connected"`
	// OutstandingTasks counts tasks dispatched but not yet completed.
	OutstandingTasks int `json:"outstanding_tasks"`
	// QueuedTasks counts tasks waiting in the service-side queue.
	QueuedTasks int `json:"queued_tasks"`
	// Managers is the number of live managers.
	Managers int `json:"managers"`
	// Workers is the total worker (container) count across managers.
	Workers int `json:"workers"`
	// IdleWorkers is the number of workers without an assigned task.
	IdleWorkers int `json:"idle_workers"`
	// LiveBlocks counts the provider blocks (pilot jobs) with booted
	// nodes at an elastic endpoint (0 for static endpoints).
	LiveBlocks int `json:"live_blocks,omitempty"`
	// PendingBlocks counts blocks requested but not fully booted:
	// capacity already on the way. The elasticity controller's
	// cold-start-aware strategy discounts members whose capacity is
	// arriving so it does not over-ask during boot windows.
	PendingBlocks int `json:"pending_blocks,omitempty"`
	// LastHeartbeat is the time of the most recent agent heartbeat.
	LastHeartbeat time.Time `json:"last_heartbeat,omitzero"`
}

// Backlog is the endpoint's total uncompleted work: tasks queued at
// the service plus tasks dispatched but unfinished.
func (s *EndpointStatus) Backlog() int {
	return s.QueuedTasks + s.OutstandingTasks
}

// ElasticSpec is a group's fleet-elasticity configuration: when set on
// an EndpointGroup, the service's autoscaling controller periodically
// snapshots group-wide backlog and pushes per-member ScalingAdvice to
// the endpoint agents (see internal/elastic).
type ElasticSpec struct {
	// Strategy names the advice strategy ("proportional", "watermark",
	// "coldstart"); empty selects the default.
	Strategy string `json:"strategy,omitempty"`
	// TasksPerBlock is the backlog one provisioned block is expected
	// to absorb (default 1): the divisor converting group backlog into
	// a block target.
	TasksPerBlock int `json:"tasks_per_block,omitempty"`
	// MaxBlocksPerMember caps the advised target per member (0 = rely
	// solely on each endpoint's own MaxBlocks clamp).
	MaxBlocksPerMember int `json:"max_blocks_per_member,omitempty"`
	// HighWater is the per-block backlog ratio above which the
	// watermark strategy advises scale-out (default 2).
	HighWater float64 `json:"high_water,omitempty"`
	// LowWater is the per-block backlog ratio below which the
	// watermark strategy counts an evaluation toward scale-in
	// (default 0.5).
	LowWater float64 `json:"low_water,omitempty"`
	// Hysteresis is how many consecutive low-water evaluations the
	// watermark strategy requires before advising scale-in (default 3).
	Hysteresis int `json:"hysteresis,omitempty"`
	// AdviceTTL bounds advice validity; endpoints receiving no fresh
	// advice within the TTL decay back to their local policy (default:
	// a few heartbeat periods, set by the service).
	AdviceTTL time.Duration `json:"advice_ttl,omitempty"`
}

// ScalingAdvice is the elasticity controller's capacity recommendation
// for one endpoint, pushed to the agent piggybacked on forwarder
// heartbeats. Advice is advisory, never authoritative: the endpoint
// clamps TargetBlocks to its own ScalingPolicy Min/MaxBlocks, and
// advice older than TTL decays back to the local policy.
type ScalingAdvice struct {
	EndpointID EndpointID `json:"endpoint_id"`
	// GroupID names the group whose backlog produced the advice.
	GroupID GroupID `json:"group_id,omitempty"`
	// TargetBlocks is the recommended provisioned (live + pending)
	// block count.
	TargetBlocks int `json:"target_blocks"`
	// Seq increments with each controller evaluation, so receivers can
	// discard reordered advice.
	Seq uint64 `json:"seq,omitempty"`
	// Issued is when the controller computed the advice.
	Issued time.Time `json:"issued,omitzero"`
	// TTL bounds validity after Issued (receivers judge staleness from
	// their own receipt time, so clock skew cannot pin stale advice).
	TTL time.Duration `json:"ttl,omitempty"`
}

// Capacity is a manager's advertisement to its agent: how many tasks it
// can accept now (and, with prefetching, in the near future) per deployed
// container type (paper §4.3, §4.7).
type Capacity struct {
	ManagerID ManagerID `json:"manager_id"`
	// Free maps container key -> idle workers deployed in that
	// container.
	Free map[string]int `json:"free"`
	// Slots is the number of undeployed worker slots: the manager can
	// deploy a container of any type on demand for each (§4.5).
	Slots int `json:"slots,omitempty"`
	// Prefetch is the additional task count the manager is willing to
	// buffer ahead of worker availability (§4.7).
	Prefetch int `json:"prefetch,omitempty"`
	// Total is the node's worker slot count.
	Total int `json:"total"`
}

// Available returns how many more tasks the manager can absorb for a
// container key right now: matching idle workers, plus on-demand
// deployment slots, plus prefetch headroom.
func (c *Capacity) Available(key string) int {
	return c.Free[key] + c.Slots + c.Prefetch
}
