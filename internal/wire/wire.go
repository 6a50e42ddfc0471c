// Package wire defines the codecs for the records exchanged between
// the funcX service, forwarders, endpoint agents, and managers. Task
// payloads and results remain opaque serialized buffers (see
// internal/serial); wire only frames the records around them.
//
// Tasks, task batches and results, which cross every hop of every
// task, use a hand-rolled binary frame. A frame opens with a version
// byte naming the record kind and layout (0xF1 task, 0xF2 batch, 0xF3
// result; never '{' or '[', so a JSON frame is rejected), a flags byte
// for a task or result, then varints (zigzag for signed fields) and
// length-prefixed fields:
//
//	task   = 0xF1 flags strtab batch_n attempt max_retries walltime submitted payload
//	         flags: memoize, at-most-once, traced, sampled
//	batch  = 0xF2 count {len task}
//	result = 0xF3 flags strtab error completed ts tf te tw [exec manager_queue agent_queue] output
//	         flags: failed, lost, memoized, traced (the deltas follow only when traced)
//
// strtab is one length-prefixed block holding every string field, each
// itself length-prefixed: a task's id, function, endpoint, owner,
// container tech and image, group, body hash and trace id, then its
// selector pair count and pairs in key order; a result's task id and
// worker id. The decoder turns the block into one string and slices
// the fields out of it. Times are seconds since year 1 then
// nanoseconds. payload and output are raw bytes, written as 0 for nil
// or length+1 and the bytes, and are copied out on decode, so a decoded
// record never aliases its frame. Decoding checks every length against
// the bytes left before allocating, and rejects trailing bytes and any
// non-canonical form, so encode(decode(b)) == b for every accepted b.
// TaskMemoize and ResultStatus read a frame's header without decoding
// the rest.
//
// The remaining records (registration, capacity, advice, task start,
// events, DAGs, status) are cold-path or SSE text and stay JSON.
package wire

import (
	"encoding/json"
	"fmt"

	"funcx/internal/dag"
	"funcx/internal/types"
)

// Registration is the payload of a MsgRegister from an endpoint agent
// to its forwarder, or from a manager to its agent.
type Registration struct {
	// EndpointID identifies the registering endpoint (agent → forwarder).
	EndpointID types.EndpointID `json:"endpoint_id,omitempty"`
	// ManagerID identifies the registering manager (manager → agent).
	ManagerID types.ManagerID `json:"manager_id,omitempty"`
	// Workers is the worker count behind the registrant.
	Workers int `json:"workers,omitempty"`
	// Containers lists the container keys deployed at registration.
	Containers []string `json:"containers,omitempty"`
	// Token authenticates the registrant (endpoint native client).
	Token string `json:"token,omitempty"`
}

// EncodeRegistration frames a registration.
func EncodeRegistration(r *Registration) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("wire: marshaling registration: %v", err))
	}
	return b
}

// DecodeRegistration unframes a registration.
func DecodeRegistration(data []byte) (*Registration, error) {
	var r Registration
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("wire: decoding registration: %w", err)
	}
	return &r, nil
}

// EncodeCapacity frames a capacity advertisement.
func EncodeCapacity(c *types.Capacity) []byte {
	b, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("wire: marshaling capacity: %v", err))
	}
	return b
}

// DecodeCapacity unframes a capacity advertisement.
func DecodeCapacity(data []byte) (*types.Capacity, error) {
	var c types.Capacity
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("wire: decoding capacity: %w", err)
	}
	return &c, nil
}

// EncodeAdvice frames a scaling-advice push (service → endpoint,
// piggybacked on forwarder heartbeats).
func EncodeAdvice(a *types.ScalingAdvice) []byte {
	b, err := json.Marshal(a)
	if err != nil {
		panic(fmt.Sprintf("wire: marshaling advice: %v", err))
	}
	return b
}

// DecodeAdvice unframes a scaling-advice push.
func DecodeAdvice(data []byte) (*types.ScalingAdvice, error) {
	var a types.ScalingAdvice
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("wire: decoding advice: %w", err)
	}
	return &a, nil
}

// TaskStart is the payload of a MsgRunning frame: the execution-start
// signal a worker raises the moment it picks a task up, relayed
// manager → agent → forwarder toward the service.
type TaskStart struct {
	TaskID    types.TaskID    `json:"task_id"`
	WorkerID  types.WorkerID  `json:"worker_id,omitempty"`
	ManagerID types.ManagerID `json:"manager_id,omitempty"`
}

// EncodeTaskStart frames an execution-start signal.
func EncodeTaskStart(s *TaskStart) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("wire: marshaling task start: %v", err))
	}
	return b
}

// DecodeTaskStart unframes an execution-start signal.
func DecodeTaskStart(data []byte) (*TaskStart, error) {
	var s TaskStart
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("wire: decoding task start: %w", err)
	}
	return &s, nil
}

// EncodeEvent frames a task lifecycle event (the SSE data payload of
// GET /v1/events). json.Marshal emits no raw newlines, so the frame
// always fits one SSE data line.
func EncodeEvent(e *types.TaskEvent) []byte {
	b, err := json.Marshal(e)
	if err != nil {
		panic(fmt.Sprintf("wire: marshaling event: %v", err))
	}
	return b
}

// DecodeEvent unframes a task lifecycle event.
func DecodeEvent(data []byte) (*types.TaskEvent, error) {
	var e types.TaskEvent
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("wire: decoding event: %w", err)
	}
	return &e, nil
}

// EncodeDAG frames a dependency-graph record for the store (the
// journaled graph state the service recovers pending edges from).
func EncodeDAG(g *dag.Graph) []byte {
	b, err := json.Marshal(g)
	if err != nil {
		panic(fmt.Sprintf("wire: marshaling dag: %v", err))
	}
	return b
}

// DecodeDAG unframes a dependency-graph record.
func DecodeDAG(data []byte) (*dag.Graph, error) {
	var g dag.Graph
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("wire: decoding dag: %w", err)
	}
	return &g, nil
}

// EncodeStatus frames an endpoint status report.
func EncodeStatus(s *types.EndpointStatus) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("wire: marshaling status: %v", err))
	}
	return b
}

// DecodeStatus unframes an endpoint status report.
func DecodeStatus(data []byte) (*types.EndpointStatus, error) {
	var s types.EndpointStatus
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("wire: decoding status: %w", err)
	}
	return &s, nil
}
