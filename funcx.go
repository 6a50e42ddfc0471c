// Package funcx is a from-scratch Go reproduction of funcX — the
// federated function-as-a-service fabric for science (Chard et al.,
// HPDC 2020) — together with every substrate its evaluation depends
// on and a harness that regenerates each table and figure of the
// paper's §5.
//
// # Public surface
//
// This root package re-exports the three entry points a downstream
// user needs:
//
//   - Client (the SDK of paper §3): register functions, run them on
//     endpoints, retrieve results, and batch with Map.
//   - Fabric (the deployment of §4): boot a cloud service plus any
//     number of endpoints — in one process for development and
//     experiments, or over TCP via the cmd/funcx-service and
//     cmd/funcx-endpoint binaries.
//   - The experiment drivers of §5 via cmd/funcx-bench.
//
// # Quickstart
//
//	fab, _ := funcx.NewFabric(funcx.FabricConfig{})
//	defer fab.Close()
//	ep, _ := fab.AddEndpoint(funcx.EndpointOptions{
//		Name: "laptop", Owner: "me", Managers: 1, WorkersPerManager: 4,
//	})
//	fc := fab.Client("me")
//	fnID, _ := fc.RegisterFunction(ctx, "echo", funcx.BodyEcho, funcx.ContainerSpec{}, nil)
//	payload, _ := funcx.Serialize("hello-world")
//	fut, _ := fc.SubmitFuture(ctx, funcx.SubmitSpec{Function: fnID, Endpoint: ep.ID, Payload: payload})
//	res, _ := fut.Get(ctx)
//
// See examples/ for complete programs mirroring the paper's case
// studies.
package funcx

import (
	"funcx/internal/core"
	"funcx/internal/elastic"
	"funcx/internal/fx"
	"funcx/internal/router"
	"funcx/internal/sdk"
	"funcx/internal/serial"
	"funcx/internal/shard"
	"funcx/internal/types"
)

// Client is the funcX SDK client (paper §3 / Listing 1).
type Client = sdk.Client

// NewClient builds an SDK client for a service URL and bearer token.
// Call Client.Close when done to stop the background event-stream
// consumer behind futures.
func NewClient(baseURL, token string) *Client { return sdk.New(baseURL, token) }

// Result is a completed task outcome returned by the SDK.
type Result = sdk.Result

// SubmitSpec describes one task submission for Client.Submit /
// Client.SubmitFuture: a function, a target (endpoint or group), a
// payload, and options.
type SubmitSpec = sdk.SubmitSpec

// EndpointSpec describes an endpoint registration (Client.NewEndpoint).
type EndpointSpec = sdk.EndpointSpec

// GroupSpec describes an endpoint-group creation (Client.NewGroup and
// Fabric.AddGroup): a named fleet the service router places tasks
// across (Client.RunAnywhere).
type GroupSpec = sdk.GroupSpec

// Future is a handle on a submitted task's eventual result, resolved
// by the client's event-stream consumer (one SSE subscription, with
// batched waits reconciling what the stream misses): N outstanding
// futures cost one connection, not N requests.
type Future = sdk.Future

// MapFuture tracks one Map call's batch futures
// (Client.MapFuture / Client.MapAnywhereFuture).
type MapFuture = sdk.MapFuture

// TaskEvent is one task lifecycle transition on a user's event stream
// (GET /v1/events).
type TaskEvent = types.TaskEvent

// Fabric is a running funcX federation: the cloud service plus its
// registered endpoints (paper §4).
type Fabric = core.Fabric

// FabricConfig parameterizes a federation.
type FabricConfig = core.FabricConfig

// NewFabric boots a service and its REST listener.
func NewFabric(cfg FabricConfig) (*Fabric, error) { return core.NewFabric(cfg) }

// ShardedFabric is a running multi-shard federation: N shared-nothing
// service shards behind one consistent-hash ring, any of which serves
// as a front door (requests for keys another shard owns are proxied or
// redirected by the cross-shard gateway).
type ShardedFabric = core.ShardedFabric

// ShardedFabricConfig parameterizes a multi-shard federation.
type ShardedFabricConfig = core.ShardedFabricConfig

// NewShardedFabric boots N service shards sharing a ring config and a
// token-signing key.
func NewShardedFabric(cfg ShardedFabricConfig) (*ShardedFabric, error) {
	return core.NewShardedFabric(cfg)
}

// ShardRingConfig is the seeded consistent-hash ring configuration
// every shard of a deployment must load identically (see
// internal/shard).
type ShardRingConfig = shard.Config

// ShardInfo locates one shard: ring identity plus REST base URL.
type ShardInfo = shard.Info

// Endpoint is one deployed endpoint: agent, managers, containerized
// workers.
type Endpoint = core.Endpoint

// EndpointOptions shape an endpoint deployment.
type EndpointOptions = core.EndpointOptions

// EndpointGroup is a registered endpoint group.
type EndpointGroup = types.EndpointGroup

// GroupMember names one endpoint in a group, with an optional static
// placement weight.
type GroupMember = types.GroupMember

// Placement policies accepted by group creation (internal/router).
const (
	// PolicyRoundRobin rotates through healthy group members.
	PolicyRoundRobin = string(router.RoundRobin)
	// PolicyLeastOutstanding picks the member with the smallest
	// backlog (queued + outstanding tasks).
	PolicyLeastOutstanding = string(router.LeastOutstanding)
	// PolicyWeightedQueueDepth picks the member with the smallest
	// backlog per unit of capacity (weight or live worker count).
	PolicyWeightedQueueDepth = string(router.WeightedQueueDepth)
	// PolicyLabelAffinity picks the member matching the most selector
	// labels, backlog-tie-broken.
	PolicyLabelAffinity = string(router.LabelAffinity)
)

// ElasticSpec opts an endpoint group into the service's fleet
// autoscaling controller (see internal/elastic): group-wide backlog is
// converted into per-member block targets and pushed to member
// endpoints as scaling advice, clamped at each endpoint to its own
// scaling limits.
type ElasticSpec = types.ElasticSpec

// ScalingAdvice is the controller's capacity recommendation for one
// endpoint, piggybacked on forwarder heartbeats.
type ScalingAdvice = types.ScalingAdvice

// Elasticity strategies accepted by ElasticSpec.Strategy.
const (
	// StrategyProportional distributes the group's block need by
	// backlog share.
	StrategyProportional = elastic.StrategyProportional
	// StrategyWatermark steps members up past a high per-block backlog
	// watermark and down after sustained low water (hysteresis).
	StrategyWatermark = elastic.StrategyWatermark
	// StrategyColdStart is proportional with a discount for members
	// whose blocks are still booting.
	StrategyColdStart = elastic.StrategyColdStart
)

// Identifiers and task records.
type (
	// TaskID identifies one function invocation.
	TaskID = types.TaskID
	// FunctionID identifies a registered function.
	FunctionID = types.FunctionID
	// EndpointID identifies a registered endpoint.
	EndpointID = types.EndpointID
	// GroupID identifies an endpoint group.
	GroupID = types.GroupID
	// UserID identifies a user.
	UserID = types.UserID
	// ContainerSpec names a function's execution environment.
	ContainerSpec = types.ContainerSpec
	// Timing is the per-hop latency breakdown (paper Figure 4).
	Timing = types.Timing
	// TaskStatus is a task's lifecycle state (queued → dispatched →
	// running → success/failed/lost).
	TaskStatus = types.TaskStatus
)

// Delivery-semantics errors surfaced by futures and result fetches.
var (
	// ErrTaskFailed wraps remote execution failures.
	ErrTaskFailed = sdk.ErrTaskFailed
	// ErrTaskLost wraps delivery-layer give-ups: the task's retry
	// budget was exhausted, or it was submitted at-most-once
	// (SubmitSpec.AtMostOnce) and its endpoint was lost mid-flight.
	// It also matches ErrTaskFailed.
	ErrTaskLost = sdk.ErrTaskLost
)

// Built-in function bodies (the workloads of paper §5).
var (
	// BodyNoop is the 0-second no-op function.
	BodyNoop = fx.BodyNoop
	// BodySleep sleeps for its float64-seconds argument.
	BodySleep = fx.BodySleep
	// BodyStress busy-spins one core for its argument duration.
	BodyStress = fx.BodyStress
	// BodyEcho returns its payload unchanged ("hello-world").
	BodyEcho = fx.BodyEcho
	// BodyDouble sleeps 1 s and doubles its argument (Table 3).
	BodyDouble = fx.BodyDouble
)

// Serialize encodes a value with the funcX serialization facade
// (paper §4.6).
func Serialize(v any) ([]byte, error) { return serial.Serialize(v) }

// Deserialize decodes a facade buffer, optionally into out.
func Deserialize(buf []byte, out any) (any, error) { return serial.Deserialize(buf, out) }
