// Durable mode: every hash mutation of a persistent store is journaled
// to a write-ahead log inside the same critical section that applies
// it, so journal order equals apply order and replay is deterministic.
// Queues are not journaled: the service rebuilds them from its task
// records. A background snapshotter checkpoints every hash and
// truncates the log when enough journal has accumulated.
//
// The freeze lock orders journaling against snapshots: mutators hold
// it shared around (mutate + append), the snapshotter holds it
// exclusively around (rotate segment + encode state), so a snapshot is
// exactly the state produced by the records before the rotation point.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"funcx/internal/wal"
)

// PersistOptions tunes the snapshot policy of a persistent store.
type PersistOptions struct {
	// SnapshotBytes triggers a checkpoint once this many journal
	// payload bytes accumulate since the last one. Default 8 MiB.
	SnapshotBytes uint64
	// SnapshotOps triggers a checkpoint once this many journal records
	// accumulate since the last one. Default 100k.
	SnapshotOps uint64
	// SnapshotInterval is how often the snapshotter checks the
	// thresholds. Default 500ms.
	SnapshotInterval time.Duration
}

func (o PersistOptions) withDefaults() PersistOptions {
	if o.SnapshotBytes == 0 {
		o.SnapshotBytes = 8 << 20
	}
	if o.SnapshotOps == 0 {
		o.SnapshotOps = 100_000
	}
	if o.SnapshotInterval <= 0 {
		o.SnapshotInterval = 500 * time.Millisecond
	}
	return o
}

// journal couples a WAL with the freeze lock and since-last-snapshot
// counters. A nil *journal on a Hash means pure in-memory mode.
type journal struct {
	freeze sync.RWMutex
	log    *wal.Log
	ops    atomic.Uint64
	bytes  atomic.Uint64
}

func (j *journal) lock()   { j.freeze.RLock() }
func (j *journal) unlock() { j.freeze.RUnlock() }

// record appends one op. Called with freeze held shared and the owning
// structure's mutex held, so append order is apply order. WAL errors
// are sticky inside the log and surfaced via Store.WALErr.
func (j *journal) record(op []byte) {
	_ = j.log.Append(op)
	j.ops.Add(1)
	j.bytes.Add(uint64(len(op)))
}

// NewPersistent returns a store whose every mutation is journaled to
// log, after first replaying the log's recovered snapshot and tail
// records into the fresh store. The caller owns opening the log
// (wal.Open) and the store takes over closing it.
func NewPersistent(log *wal.Log, opts PersistOptions) (*Store, error) {
	s := New()
	s.j = &journal{log: log}
	s.popts = opts.withDefaults()
	if blob := log.RecoveredSnapshot(); len(blob) > 0 {
		if err := s.decodeSnapshot(blob); err != nil {
			return nil, fmt.Errorf("store: decoding snapshot: %w", err)
		}
	}
	for i, rec := range log.RecoveredRecords() {
		if err := s.applyRecord(rec); err != nil {
			return nil, fmt.Errorf("store: replaying record %d: %w", i, err)
		}
	}
	log.DropRecovered()
	s.startSnapshotter()
	return s, nil
}

// Persistent reports whether this store journals to a WAL.
func (s *Store) Persistent() bool { return s.j != nil }

// Recovered reports whether the store was rebuilt from prior on-disk
// state (as opposed to starting from an empty data directory).
func (s *Store) Recovered() bool {
	return s.j != nil && s.j.log.Recovered()
}

// WALStats returns the underlying log's counters; ok is false for an
// in-memory store.
func (s *Store) WALStats() (stats wal.Stats, ok bool) {
	if s.j == nil {
		return wal.Stats{}, false
	}
	return s.j.log.Stats(), true
}

// WALErr returns the log's sticky I/O error, if any.
func (s *Store) WALErr() error {
	if s.j == nil {
		return nil
	}
	return s.j.log.Err()
}

// Sync forces buffered journal records to disk now (tests and clean
// shutdown paths; normal operation group-commits in the background).
func (s *Store) Sync() error {
	if s.j == nil {
		return nil
	}
	return s.j.log.Sync()
}

// Snapshot forces a checkpoint: it seals the current WAL segment,
// encodes full store state as of that boundary, writes it durably, and
// prunes the journal before it.
func (s *Store) Snapshot() error {
	j := s.j
	if j == nil {
		return nil
	}
	j.freeze.Lock()
	seg, err := j.log.Rotate()
	if err != nil {
		j.freeze.Unlock()
		return err
	}
	blob := s.encodeSnapshot()
	j.ops.Store(0)
	j.bytes.Store(0)
	j.freeze.Unlock()
	return j.log.WriteSnapshot(seg, blob)
}

// startSnapshotter launches the background checkpoint loop.
func (s *Store) startSnapshotter() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snapStop != nil || s.closed {
		return
	}
	s.snapStop = make(chan struct{})
	s.snapDone = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		ticker := time.NewTicker(s.popts.SnapshotInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				if s.j.ops.Load() >= s.popts.SnapshotOps || s.j.bytes.Load() >= s.popts.SnapshotBytes {
					_ = s.Snapshot()
				}
			}
		}
	}(s.snapStop, s.snapDone)
}

func (s *Store) stopSnapshotter() {
	s.mu.Lock()
	stop, done := s.snapStop, s.snapDone
	s.snapStop, s.snapDone = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// ---------------------------------------------------------------------
// Op codec. Each journal record is one mutation:
//
//	opcode byte, then length-prefixed strings/bytes and uvarints.
//
// Hash expiries are journaled as absolute unix-nano deadlines (0 =
// none) so replay at a later wall-clock time re-expires naturally.
// ---------------------------------------------------------------------

const (
	opHSet byte = iota + 1
	opHDel
)

// Opcodes 3 to 8 journaled the durable task queues (push, push-front,
// pop, ack, nack, requeue) in the format before queues were rebuilt
// from task records. A journal holding one is refused: skipping it
// would drop the at-most-once leases it records, and the task would be
// delivered again.
const firstQueueEraOp, lastQueueEraOp byte = 3, 8

// errQueueEraJournal refuses a WAL or snapshot written in the
// queue-journaling format.
var errQueueEraJournal = errors.New("journal is in the queue-era format (durable task queues); " +
	"this version rebuilds queues from task records and does not read that format")

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

type opReader struct {
	b   []byte
	off int
	err error
}

func (r *opReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *opReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)-r.off) < n {
		r.err = fmt.Errorf("short bytes at offset %d", r.off)
		return nil
	}
	v := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return v
}

func (r *opReader) string() string { return string(r.bytes()) }

func encodeHSet(name, field string, value []byte, expiry time.Time) []byte {
	b := make([]byte, 0, 1+len(name)+len(field)+len(value)+24)
	b = append(b, opHSet)
	b = appendString(b, name)
	b = appendString(b, field)
	b = appendBytes(b, value)
	var nanos uint64
	if !expiry.IsZero() {
		nanos = uint64(expiry.UnixNano())
	}
	return binary.AppendUvarint(b, nanos)
}

func encodeHDel(name, field string) []byte {
	b := make([]byte, 0, 1+len(name)+len(field)+8)
	b = append(b, opHDel)
	b = appendString(b, name)
	return appendString(b, field)
}

// applyRecord replays one journaled mutation without re-journaling.
func (s *Store) applyRecord(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("empty record")
	}
	r := &opReader{b: rec, off: 1}
	// Replay arm for every WAL op code: an op that can be encoded must
	// be replayable, or recovery silently drops journaled mutations.
	//funcx:exhaustive funcx/internal/store.op*
	switch rec[0] {
	case opHSet:
		name, field, value := r.string(), r.string(), r.bytes()
		nanos := r.uvarint()
		if r.err != nil {
			return r.err
		}
		var expiry time.Time
		if nanos != 0 {
			expiry = time.Unix(0, int64(nanos))
		}
		v := make([]byte, len(value))
		copy(v, value)
		s.Hash(name).applySet(field, v, expiry)
	case opHDel:
		name, field := r.string(), r.string()
		if r.err != nil {
			return r.err
		}
		s.Hash(name).applyDel(field)
	default:
		if rec[0] >= firstQueueEraOp && rec[0] <= lastQueueEraOp {
			return fmt.Errorf("opcode %d: %w", rec[0], errQueueEraJournal)
		}
		return fmt.Errorf("unknown opcode %d", rec[0])
	}
	return r.err
}

// ---------------------------------------------------------------------
// Replay-side mutators: identical state transitions to the public
// methods, minus journaling.
// ---------------------------------------------------------------------

func (h *Hash) applySet(field string, value []byte, expiry time.Time) {
	h.mu.Lock()
	h.fields[field] = entry{value: value, expiry: expiry}
	h.mu.Unlock()
}

func (h *Hash) applyDel(field string) {
	h.mu.Lock()
	delete(h.fields, field)
	h.mu.Unlock()
}

// ---------------------------------------------------------------------
// Snapshot codec: every hash with its live fields and absolute
// expiries.
// ---------------------------------------------------------------------

// encodeSnapshot serializes current state. Called with the freeze lock
// held exclusively, so no journaled mutation can interleave; it still
// takes each structure's own mutex against non-journaled readers.
func (s *Store) encodeSnapshot() []byte {
	s.mu.Lock()
	hashes := maps.Clone(s.hashes)
	s.mu.Unlock()

	b := make([]byte, 0, 4096)
	b = binary.AppendUvarint(b, uint64(len(hashes)))
	for name, h := range hashes {
		b = appendString(b, name)
		h.mu.RLock()
		now := h.now()
		live := make([]string, 0, len(h.fields))
		for f, e := range h.fields {
			if !e.expired(now) {
				live = append(live, f)
			}
		}
		b = binary.AppendUvarint(b, uint64(len(live)))
		for _, f := range live {
			e := h.fields[f]
			b = appendString(b, f)
			b = appendBytes(b, e.value)
			var nanos uint64
			if !e.expiry.IsZero() {
				nanos = uint64(e.expiry.UnixNano())
			}
			b = binary.AppendUvarint(b, nanos)
		}
		h.mu.RUnlock()
	}
	return b
}

// decodeSnapshot loads a snapshot payload into a fresh store.
func (s *Store) decodeSnapshot(blob []byte) error {
	r := &opReader{b: blob}
	nh := r.uvarint()
	for i := uint64(0); i < nh && r.err == nil; i++ {
		h := s.Hash(r.string())
		nf := r.uvarint()
		for j := uint64(0); j < nf && r.err == nil; j++ {
			field := r.string()
			value := r.bytes()
			nanos := r.uvarint()
			if r.err != nil {
				break
			}
			v := make([]byte, len(value))
			copy(v, value)
			var expiry time.Time
			if nanos != 0 {
				expiry = time.Unix(0, int64(nanos))
			}
			h.applySet(field, v, expiry)
		}
	}
	if r.err == nil && r.off < len(blob) {
		// A queue-era snapshot carries its queues after the hashes.
		return errQueueEraJournal
	}
	return r.err
}
