// One task record, one writer.
//
// Every task the service accepts is one taskRecord in s.records: its
// owner, placed endpoint, lifecycle status, attempt, TS latency
// component, the encoded task while it is live, and the encoded result
// once it is terminal. transition is the only function that changes a
// record. Under recMu it checks that the move goes forward, writes the
// record, journals the durable image when the move is one recovery
// needs, and publishes exactly one lifecycle event. The DAG cascade a
// terminal move unlocks runs after the unlock. Delivery ordering
// (queued ≤ dispatched ≤ running ≤ exactly one terminal) therefore
// holds by construction: there is no second writer to race.
//
// A record lives exactly as long as its result: purge-on-read
// deletes it (or, with a retention window, marks it and lets
// expireRecords drop it at the next pass), and a purged task is
// unknown to every surface. The one exception is a terminal record an
// unfinished graph still binds (it is pinned): its purge hides it from
// every surface but keeps it, in memory and in the journal as a read
// mark, until the graph finishes and unpins it.
package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"time"

	"funcx/internal/trace"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// recordsHash journals each record's durable image on a WAL-backed
// instance (field = task id, value = encodeRecord). It is the only
// place a task is journaled, and only the moves recovery needs are:
// submit/requeue/failover (queued, with the task frame), dispatched for
// an at-most-once task (which recovery must not run twice), terminal
// (with the result) and purge (a delete, or a read mark while a graph
// pins the record). Running, and dispatched for an at-least-once task,
// stay in memory: recovery requeues such a task anyway. So does a held
// DAG node (pending): recovery reads a graph node with no image as
// held and recreates its record from the graph's journaled shape.
const recordsHash = "taskrec"

// legacyTaskHashes held per-task state before the task record: owner,
// task frame, status and result each in its own hash. Open refuses a
// journal that still holds them rather than boot with its in-flight
// tasks silently gone.
var legacyTaskHashes = []string{"owners", "tasks", "status", "results"}

// recordFormat leads every journaled record image.
const recordFormat byte = 1

// recordRead trails the image of a record that was read while a graph
// still pinned it: recovery binds its result into the graph but never
// serves it to a client.
const recordRead byte = 1

// recordGone is the transition target that ends a record's life: the
// purge after a result was read or streamed, the rollback of a failed
// enqueue, and a drain export. It publishes no event.
const recordGone types.TaskStatus = ""

// recordPin and recordUnpin add and drop one graph's pin (change.dag)
// on a record. Neither changes the status or publishes; the last unpin
// of a record that was already read ends its life.
const (
	recordPin   types.TaskStatus = "pin"
	recordUnpin types.TaskStatus = "unpin"
)

// taskRecord is the service's one representation of a task.
type taskRecord struct {
	owner    types.UserID
	endpoint types.EndpointID
	status   types.TaskStatus
	attempt  int
	// ts is the service-side TS latency component, stamped on the
	// result when the task retires.
	ts time.Duration
	// task is the wire-encoded task while the task is live; result is
	// the wire-encoded result once it is terminal.
	task   []byte
	result []byte
	// retainUntil, once set, marks the record read and ends its
	// in-memory grace window.
	retainUntil time.Time
	// pins names the unfinished graphs that bind this task's output: its
	// own graph for a node, each consuming graph for an external parent.
	pins []types.DAGID
}

// hidden reports a read record past its grace window: gone for every
// surface.
func (rec taskRecord) hidden(now time.Time) bool {
	return !rec.retainUntil.IsZero() && !now.Before(rec.retainUntil)
}

// bound reports a terminal record an unfinished graph may still bind
// at recovery: its purge journals a read mark in place of the delete
// and keeps the record, hidden, until the last unpin.
func (rec taskRecord) bound() bool {
	return len(rec.pins) > 0 && rec.status.Terminal()
}

// change carries what one transition writes besides the status.
type change struct {
	// owner is set only by the moves that create a record (submit,
	// DAG hold, memo hit, handoff import, DAG failure); a creating move
	// may also take over a held (pending) DAG record, keeping its pins.
	// A pin applies only to a record of this owner, when set.
	owner types.UserID
	// endpoint is the task's (new) home for queued or a creating move,
	// and the reporting endpoint for dispatched/running, where a
	// mismatch marks a stale notification from an endpoint the task
	// already left.
	endpoint types.EndpointID
	// attempt is the enqueued attempt for queued; for dispatched, an
	// attempt older than the record's is stale (0 = unchecked).
	attempt int
	ts      time.Duration
	// dag stamps the pending event of a held DAG node and names the
	// graph a hold, pin or unpin applies to.
	dag types.DAGID
	// task is the encoded task for queued; result the terminal outcome,
	// encoded under the lock once the TS component is stamped.
	task   []byte
	result *types.Result
	// retain keeps a purged record readable in memory this long.
	retain time.Duration
}

// advances reports whether status from may move to status to; from is
// empty when no record exists. Records only move forward: nothing
// leaves a terminal status except the purge, and dispatched/running
// follow only the status before them.
func advances(from, to types.TaskStatus) bool {
	//funcx:exhaustive funcx/internal/types.TaskStatus ignore=DAGRunning,DAGSuccess,DAGFailed
	switch to {
	case types.TaskPending:
		return from == ""
	case types.TaskQueued, types.TaskSuccess, types.TaskFailed, types.TaskLost:
		return !from.Terminal()
	case types.TaskDispatched:
		return from == types.TaskQueued
	case types.TaskRunning:
		return from == types.TaskDispatched
	}
	return false
}

// transition is the only writer of task records. It applies one move
// to id's record under recMu, journals the durable image on a
// persistent store, and publishes the move's lifecycle event (none for
// recordGone). It returns the record as it was before the move and
// whether the move applied; a refused move (stale, backwards, or for an
// unknown task) changes nothing.
func (s *Service) transition(id types.TaskID, to types.TaskStatus, c change) (taskRecord, bool) {
	s.recMu.Lock()
	prev, exists := s.records[id]
	switch to {
	case recordGone:
		// The end of a record's life: its durable image goes at once, and
		// with a retain window the in-memory record stays readable until
		// expireRecords drops it (a record already inside its window
		// keeps the first purge's deadline). A bound record turns into a
		// read mark instead and stays, hidden, until its last unpin.
		ok := exists && (c.retain <= 0 || prev.retainUntil.IsZero())
		first, keep := ok && prev.retainUntil.IsZero(), c.retain > 0 || prev.bound()
		rec := prev
		if first && keep {
			rec.retainUntil = time.Now().Add(max(c.retain, 0))
		}
		if first && s.Store.Persistent() && prev.bound() {
			s.Store.Hash(recordsHash).Set(string(id), encodeRecord(rec))
		} else if first && s.Store.Persistent() {
			s.Store.Hash(recordsHash).Del(string(id))
		}
		if ok && keep {
			s.records[id] = rec
		} else if ok {
			delete(s.records, id)
		}
		s.recMu.Unlock()
		return prev, ok
	case recordPin, recordUnpin:
		ok := exists && (c.owner == "" || c.owner == prev.owner)
		rec := prev
		rec.pins = slices.DeleteFunc(slices.Clone(prev.pins), func(d types.DAGID) bool { return d == c.dag })
		if to == recordPin {
			rec.pins = append(rec.pins, c.dag)
		}
		// The last graph that could bind a read record let go: its read
		// mark goes, and the record too once its window is over.
		done := to == recordUnpin && !rec.retainUntil.IsZero() && len(rec.pins) == 0
		if ok && done && s.Store.Persistent() {
			s.Store.Hash(recordsHash).Del(string(id))
		}
		if ok && done && rec.hidden(time.Now()) {
			delete(s.records, id)
		} else if ok {
			s.records[id] = rec
		}
		s.recMu.Unlock()
		return prev, ok
	}
	if c.owner != "" && exists && prev.status != types.TaskPending ||
		c.owner == "" && !exists ||
		!advances(prev.status, to) ||
		(to == types.TaskDispatched || to == types.TaskRunning) &&
			(c.endpoint != prev.endpoint || c.attempt != 0 && c.attempt < prev.attempt) {
		s.recMu.Unlock()
		return prev, false
	}
	rec := prev
	if c.owner != "" {
		rec = taskRecord{owner: c.owner, endpoint: c.endpoint, ts: c.ts, pins: prev.pins}
	}
	if to == types.TaskPending {
		rec.pins = []types.DAGID{c.dag}
	}
	rec.status = to
	if to == types.TaskQueued {
		rec.endpoint, rec.attempt, rec.task = c.endpoint, c.attempt, c.task
	}
	ev := types.TaskEvent{TaskID: id, Status: to, EndpointID: rec.endpoint, DAGID: c.dag, Time: time.Now()}
	var after func()
	if to.Terminal() {
		c.result.Timing.TS = rec.ts
		rec.result, rec.task = wire.EncodeResult(c.result), nil
		// The graph step runs under the lock so a waiter woken by the
		// terminal event already sees the graph transition; the
		// releases and failures it unlocks run after the unlock.
		ev.Result = rec.result
		ev.DAGID, after = s.applyDAGResult(id, to, rec.endpoint, rec.result)
	}
	s.records[id] = rec
	if s.Store.Persistent() && to != types.TaskRunning && to != types.TaskPending &&
		(to != types.TaskDispatched || wire.TaskAtMostOnce(rec.task)) {
		s.Store.Hash(recordsHash).Set(string(id), encodeRecord(rec))
	}
	s.publish(rec.owner, ev)
	s.recMu.Unlock()
	if to.Terminal() {
		// Folding the timeline after the publish lets the publish stage
		// cover the event fan-out.
		s.Trace.Finish(id)
		if after != nil {
			after()
		}
		if s.log.Enabled(s.ctx, slog.LevelDebug) {
			s.log.Debug("task retired", "task_id", string(id), "endpoint_id", string(rec.endpoint),
				"status", string(to), "trace_id", trace.TraceID(id, ev.DAGID))
		}
	}
	return prev, true
}

// record returns a copy of id's record; purged records past their
// retention window read as gone.
func (s *Service) record(id types.TaskID) (taskRecord, bool) {
	s.recMu.Lock()
	rec, ok := s.records[id]
	s.recMu.Unlock()
	if ok && rec.hidden(time.Now()) {
		return taskRecord{}, false
	}
	return rec, ok
}

// TaskRecords reports how many task records the service holds: live
// tasks, terminal tasks whose results were not yet read, purged ones
// still inside their retention window, and read ones an unfinished
// graph still binds.
func (s *Service) TaskRecords() int {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	return len(s.records)
}

// expireRecords drops purged records whose retention window ended,
// once a second (the store janitor's cadence). A bound record waits for
// its graph's unpin instead.
func (s *Service) expireRecords() {
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case now := <-ticker.C:
			var expired []types.TaskID
			s.recMu.Lock()
			for id, rec := range s.records {
				if rec.hidden(now) && !rec.bound() {
					expired = append(expired, id)
				}
			}
			s.recMu.Unlock()
			for _, id := range expired {
				s.transition(id, recordGone, change{})
			}
		case <-s.ctx.Done():
			return
		}
	}
}

// --- durable image ---

// encodeRecord frames a record's durable image: the format byte, the
// attempt and TS as uvarints, then status, owner, endpoint, task frame
// and result frame, each length-prefixed, and recordRead when the
// record was read.
func encodeRecord(rec taskRecord) []byte {
	b := make([]byte, 0, 32+len(rec.status)+len(rec.owner)+len(rec.endpoint)+len(rec.task)+len(rec.result))
	b = append(b, recordFormat)
	b = binary.AppendUvarint(b, uint64(rec.attempt))
	b = binary.AppendUvarint(b, uint64(rec.ts))
	b = appendField(b, rec.status)
	b = appendField(b, rec.owner)
	b = appendField(b, rec.endpoint)
	b = appendField(b, rec.task)
	b = appendField(b, rec.result)
	if !rec.retainUntil.IsZero() {
		b = append(b, recordRead)
	}
	return b
}

func appendField[S ~string | ~[]byte](b []byte, f S) []byte {
	b = binary.AppendUvarint(b, uint64(len(f)))
	return append(b, f...)
}

// decodeRecord parses a durable image. The task and result frames
// alias data; a read mark decodes as a record read just now.
func decodeRecord(data []byte) (taskRecord, error) {
	if len(data) == 0 || data[0] != recordFormat {
		return taskRecord{}, fmt.Errorf("task record format %#x is not format %#x", data[:min(len(data), 1)], recordFormat)
	}
	b, short := data[1:], false
	uvarint := func() uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			short = true
			return 0
		}
		b = b[n:]
		return v
	}
	field := func() []byte { // nil when empty
		n := uvarint()
		if n == 0 || n > uint64(len(b)) {
			short = short || n > 0
			return nil
		}
		f := b[:n:n]
		b = b[n:]
		return f
	}
	// Function calls in the literal run in lexical order.
	rec := taskRecord{
		attempt: int(uvarint()), ts: time.Duration(uvarint()),
		status: types.TaskStatus(field()), owner: types.UserID(field()), endpoint: types.EndpointID(field()),
		task: field(), result: field(),
	}
	if short {
		return taskRecord{}, errors.New("truncated task record")
	}
	if len(b) > 0 && b[0] == recordRead {
		rec.retainUntil = time.Now()
	}
	return rec, nil
}

// recoverRecords loads every journaled record image into s.records,
// refusing a journal written before the task record existed or while
// DAG parent outputs were journaled a second time. It returns the ids
// of read marks, which recoverDAGs re-pins or deletes.
func (s *Service) recoverRecords() ([]types.TaskID, error) {
	for _, name := range legacyTaskHashes {
		if s.Store.Hash(name).Len() > 0 {
			return nil, fmt.Errorf("service: %s holds a pre-record task journal (per-task %q hashes); this version journals one %q record per task and does not read that format",
				s.cfg.DataDir, legacyTaskHashes, recordsHash)
		}
	}
	if s.Store.Hash(legacyDAGOutputsHash).Len() > 0 {
		return nil, fmt.Errorf("service: %s holds DAG parent outputs in a %q hash (the output-journal format); this version binds outputs from the %q records and does not read that format",
			s.cfg.DataDir, legacyDAGOutputsHash, recordsHash)
	}
	recs := make(map[types.TaskID]taskRecord, s.Store.Hash(recordsHash).Len())
	var marked []types.TaskID
	for _, id := range s.Store.Hash(recordsHash).Keys() {
		data, _ := s.Store.Hash(recordsHash).Get(id)
		rec, err := decodeRecord(data)
		if err != nil {
			return nil, fmt.Errorf("service: journaled task record %s: %w", id, err)
		}
		recs[types.TaskID(id)] = rec
		if !rec.retainUntil.IsZero() {
			marked = append(marked, types.TaskID(id))
		}
	}
	s.recMu.Lock()
	s.records = recs
	s.recMu.Unlock()
	return marked, nil
}
