// Corrected forms: every record write and task publish inside
// transition (including the map delete and the purge's hash Del),
// graph events through publishDAG, graph-journal writes at submit,
// finish and eviction, record and graph reads anywhere, and writes to
// untracked hashes.
package service

const (
	recordsHash    = "taskrec"
	dagsHash       = "dags"
	dagParentsHash = "dagparent"
)

type hashT struct{}

func (hashT) Set(k string, v []byte)      {}
func (hashT) Del(k string)                {}
func (hashT) Get(k string) ([]byte, bool) { return nil, false }
func (hashT) Keys() []string              { return nil }

type storeT struct{}

func (storeT) Hash(name string) hashT { return hashT{} }

type Service struct {
	Store   storeT
	records map[string]string
}

func (s *Service) publish(ev string) {}

func (s *Service) transition(id, to string) bool {
	if to == "" {
		delete(s.records, id)
		s.Store.Hash(recordsHash).Del(id)
		return true
	}
	s.records[id] = to
	s.Store.Hash(recordsHash).Set(id, nil)
	s.publish(to)
	return true
}

func (s *Service) publishDAG(ev string) {
	s.publish(ev)
}

func (s *Service) status(id string) (string, bool) {
	st, ok := s.records[id]
	s.Store.Hash(recordsHash).Get(id)
	return st, ok
}

func (s *Service) SubmitDAG(id string) {
	s.Store.Hash(dagsHash).Set(id, nil)
}

func (s *Service) finishDAG(id string) {
	s.Store.Hash(dagsHash).Set(id, nil)
}

func (s *Service) recoverDAGs(id string) {
	for _, k := range s.Store.Hash(dagsHash).Keys() {
		s.Store.Hash(dagsHash).Get(k)
	}
}

func (s *Service) sweepFinishedDAGs(id string) {
	h := s.Store.Hash(dagsHash)
	h.Del(id)
}

func (s *Service) untracked(id string) {
	s.Store.Hash(dagParentsHash).Set(id, nil)
}
