// Crash recovery for a durable service instance (Config.DataDir).
//
// What the journal holds is the control plane's full word: registry
// records (one JSON blob per record in "reg:<kind>" hashes), one task
// record image per live or unread task (record.go), each graph's shape
// or final state (dag.go), and each user's newest event seq. A task is
// journaled only through its record: queued at submit, requeue or
// failover, dispatched if it is at-most-once, terminal with its result,
// and the delete of its purge (a read mark while a graph binds it).
// What the journal deliberately does not hold is runtime state —
// forwarders, agent connections, client secrets, the endpoint queues
// and their leases, the running step of a task record, held DAG nodes
// and every graph's per-node progress — which recovery rebuilds or
// infers below. The sequence in recoverRegistry/recoverRuntime runs
// inside Open, strictly before the service accepts a request.
package service

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"time"

	"funcx/internal/api"
	"funcx/internal/registry"
	"funcx/internal/store"
	"funcx/internal/types"
	"funcx/internal/wire"
)

// registryHashPrefix namespaces the journaled registry hashes: one
// hash per record kind ("reg:users", "reg:functions", ...), field =
// record id, value = the record as JSON.
const registryHashPrefix = "reg:"

// persistRegistryRecord is the registry's change hook on a durable
// instance: every successful mutation journals the complete record.
// It runs while the registry lock is held; the store write does not
// re-enter the registry, so the nesting is safe.
func (s *Service) persistRegistryRecord(kind, id string, record any) {
	data, err := json.Marshal(record)
	if err != nil {
		return // registry records are plain structs; cannot fail
	}
	s.Store.Hash(registryHashPrefix+kind).Set(id, data)
}

// recoverRegistry rebuilds the registry from its journaled records.
// The Put upserts perform no cross-record validation — every record
// was validated when first registered — and the change hook is not
// installed yet, so nothing is re-journaled.
func (s *Service) recoverRegistry() error {
	if !s.Store.Recovered() {
		return nil
	}
	if err := recoverKind(s, registry.KindUser, s.Registry.PutUser); err != nil {
		return err
	}
	if err := recoverKind(s, registry.KindFunction, s.Registry.PutFunction); err != nil {
		return err
	}
	if err := recoverKind(s, registry.KindEndpoint, s.Registry.PutEndpoint); err != nil {
		return err
	}
	return recoverKind(s, registry.KindGroup, s.Registry.PutGroup)
}

// recoverKind replays one journaled record kind through its upsert.
func recoverKind[T any](s *Service, kind string, put func(*T) error) error {
	h := s.Store.Hash(registryHashPrefix + kind)
	for _, id := range h.Keys() {
		data, ok := h.Get(id)
		if !ok {
			continue
		}
		var rec T
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("service: corrupt journaled %s record %s: %w", kind, id, err)
		}
		if err := put(&rec); err != nil {
			return fmt.Errorf("service: recovering %s record %s: %w", kind, id, err)
		}
	}
	return nil
}

// recoverRuntime rebuilds everything the live request path needs that
// is not a plain store read: the task records, event-stream numbering,
// every endpoint queue, and one forwarder per endpoint. Runs after the
// registry is recovered and before any background goroutine starts.
func (s *Service) recoverRuntime() error {
	// Task records first: every later step reads them.
	marked, err := s.recoverRecords()
	if err != nil {
		return err
	}

	// Event numbering: seed each user's stream past the newest seq the
	// dead process published, so recovery-side events cannot reuse a
	// seq some client already consumed as a Last-Event-ID.
	seqs := s.Store.Hash(eventSeqHash)
	for _, user := range seqs.Keys() {
		if b, ok := seqs.Get(user); ok {
			if seq, err := strconv.ParseUint(string(b), 10, 64); err == nil {
				s.Events.SeedSeq(types.UserID(user), seq)
			}
		}
	}

	// Gateway overrides from any pre-crash drain or handoff import.
	s.recoverHandoffState()

	// Queues, then forwarders: every queue must be rebuilt before a
	// forwarder can pop (and lease) anything.
	eps := s.Registry.Endpoints()
	s.rebuildQueues(eps)
	for _, ep := range eps {
		if _, err := s.startForwarder(ep.ID); err != nil {
			return fmt.Errorf("service: restarting forwarder for endpoint %s: %w", ep.ID, err)
		}
	}
	// Graphs last: their releases need live forwarders to place into.
	s.recoverDAGs(marked)
	return nil
}

// rebuildQueues refills the endpoint queues, which are not journaled,
// from the recovered task records. Every live record requeues on its
// endpoint with its attempt unchanged, in submission order, except:
//   - an image that says dispatched is an at-most-once task that may
//     already have run, so it lands as lost;
//   - a task frame that does not decode (a journal written by an older
//     codec) lands as lost;
//   - a record whose endpoint is not registered re-enters through the
//     reclaim path (budget checks, at-most-once handling, failover).
//
// Terminal records keep their result until it is read. A held DAG
// node has no image: recoverDAGs recreates its record from the graph.
func (s *Service) rebuildQueues(eps []*types.Endpoint) {
	registered := make(map[types.EndpointID]bool, len(eps))
	for _, ep := range eps {
		registered[ep.ID] = true
	}
	s.recMu.Lock()
	recs := maps.Clone(s.records)
	s.recMu.Unlock()
	type entry struct {
		task *types.Task
		rec  taskRecord
	}
	var requeue []entry
	for id, rec := range recs {
		if rec.status == types.TaskPending || rec.status.Terminal() {
			continue
		}
		task, err := wire.DecodeTask(rec.task)
		switch {
		case err != nil:
			s.lose(&types.Task{ID: id, Owner: rec.owner, EndpointID: rec.endpoint}, "task record corrupt after crash")
		case rec.status == types.TaskDispatched:
			s.lose(task, "shard restarted with the task in flight")
		case !registered[rec.endpoint]:
			s.reclaim(task, "shard restart")
		default:
			requeue = append(requeue, entry{task, rec})
		}
	}
	slices.SortFunc(requeue, func(a, b entry) int {
		return cmp.Or(a.task.Submitted.Compare(b.task.Submitted), cmp.Compare(a.task.ID, b.task.ID))
	})
	for _, e := range requeue {
		s.Store.Queue(store.TaskQueueName(string(e.rec.endpoint))).Push(e.rec.task) //nolint:errcheck // queues stay open until Close
	}
}

// antiEntropyTimeout bounds each peer's share of the recovered-boot
// function pull: a down peer must not stall recovery.
const antiEntropyTimeout = 2 * time.Second

// pullFunctions converges function records after a recovered boot.
// Function registration replicates to peers at write time (best
// effort), so registrations broadcast while this shard was down were
// simply lost to it; the shard pulls every peer's records over the
// hop-authenticated export and merges the ones it is missing or holds
// an older version of. Best effort per peer — an unreachable peer is
// skipped, exactly as it would have been at write time.
func (s *Service) pullFunctions() {
	for _, peer := range s.cfg.Ring.Peers() {
		func() {
			ctx, cancel := context.WithTimeout(s.ctx, antiEntropyTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer.BaseURL+"/v1/shard/functions", nil)
			if err != nil {
				return
			}
			req.Header.Set(ShardHopHeader, string(s.cfg.Ring.SelfID()))
			req.Header.Set(ShardHopTokenHeader, s.replicateToken)
			resp, err := s.proxyClient.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var out api.FunctionExportResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				return
			}
			for _, fn := range out.Functions {
				if cur, err := s.Registry.Function(fn.ID); err == nil && cur.Version >= fn.Version {
					continue
				}
				s.Registry.PutFunction(fn) //nolint:errcheck // best-effort merge
			}
		}()
	}
}
