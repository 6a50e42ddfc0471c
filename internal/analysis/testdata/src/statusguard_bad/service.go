// Seeded violations: each writer that bypasses transition — a direct
// hash write and publish (the old unguarded write), a helper writing
// on transition's behalf (the old write just past the lock), a
// goroutine launched from transition (the old goroutine under the
// lock), in-memory record map writes, and publishDAG writing a record
// — and graph-journal writes outside submit, finish and eviction: the
// old per-completion rewrite from a completion helper (directly, and
// through a held hash handle), a finish site handing the write to a
// goroutine, and a record purge through a held handle.
package service

const (
	recordsHash = "taskrec"
	dagsHash    = "dags"
)

type hashT struct{}

func (hashT) Set(k string, v []byte)               {}
func (hashT) SetTTL(k string, v []byte, ttl int64) {}
func (hashT) Del(k string)                         {}
func (hashT) Purge() int                           { return 0 }

type storeT struct{}

func (storeT) Hash(name string) hashT { return hashT{} }

type Service struct {
	Store   storeT
	records map[string]string
}

func (s *Service) publish(ev string) {}

func (s *Service) place(id string) {
	s.Store.Hash(recordsHash).Set(id, nil) // want "record-hash Set outside transition"
	s.publish("queued")                    // want "lifecycle publish outside transition"
}

func (s *Service) persist(id string) {
	s.Store.Hash(recordsHash).SetTTL(id, nil, 1) // want "record-hash SetTTL outside transition"
}

func (s *Service) transition(id string) {
	s.persist(id)
	go func() {
		s.Store.Hash(recordsHash).Del(id) // want "record-hash Del outside transition"
	}()
}

func (s *Service) purge(id string) {
	s.records[id] = "gone" // want "record write outside transition"
	delete(s.records, id)  // want "record delete outside transition"
}

func (s *Service) publishDAG(id string) {
	s.publish("dag-running")
	s.Store.Hash(recordsHash).Set(id, nil) // want "record-hash Set outside transition"
}

func (s *Service) applyDAGResult(id string) {
	s.Store.Hash(dagsHash).Set(id, nil) // want "graph-journal Set outside the submit, finish and eviction sites"
}

func (s *Service) persistDAGLocked(id string) {
	s.Store.Hash(dagsHash).SetTTL(id, nil, 1) // want "graph-journal SetTTL outside the submit, finish and eviction sites"
}

func (s *Service) finishDAG(id string) {
	go func() {
		s.Store.Hash(dagsHash).Del(id) // want "graph-journal Del outside the submit, finish and eviction sites"
	}()
}

func (s *Service) releaseDAGReady(id string) {
	h := s.Store.Hash(dagsHash) // want "graph-journal handle outside the submit, finish and eviction sites"
	h.Set(id, nil)
}

func (s *Service) expire(id string) {
	s.Store.Hash(recordsHash).Purge() // want "record-hash Purge outside transition"
}
