// Corrected forms: every record write and task publish inside
// transition (including the map delete and the purge's hash Del),
// graph events through publishDAG, record reads anywhere, and writes
// to untracked hashes.
package service

const (
	recordsHash = "taskrec"
	dagsHash    = "dags"
)

type hashT struct{}

func (hashT) Set(k string, v []byte)      {}
func (hashT) Del(k string)                {}
func (hashT) Get(k string) ([]byte, bool) { return nil, false }

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

func (s *Service) untracked(id string) {
	s.Store.Hash(dagsHash).Set(id, nil)
}
