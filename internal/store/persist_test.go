package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"funcx/internal/wal"
)

func openPersistent(t *testing.T, dir string) *Store {
	t.Helper()
	log, err := wal.Open(wal.Options{Dir: dir, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	s, err := NewPersistent(log, PersistOptions{})
	if err != nil {
		t.Fatalf("NewPersistent: %v", err)
	}
	return s
}

func TestPersistentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openPersistent(t, dir)

	s.Hash("tasks").Set("t1", []byte("alpha"))
	s.Hash("tasks").Set("t2", []byte("beta"))
	s.Hash("tasks").Del("t1")
	s.Hash("results").SetTTL("t9", []byte("gone"), time.Nanosecond)
	s.Hash("results").SetTTL("t3", []byte("kept"), time.Hour)

	s.Close()

	time.Sleep(2 * time.Nanosecond) // let the nanosecond TTL lapse
	s2 := openPersistent(t, dir)
	defer s2.Close()
	if !s2.Recovered() {
		t.Fatal("expected recovered store")
	}

	if _, ok := s2.Hash("tasks").Get("t1"); ok {
		t.Fatal("deleted field t1 survived recovery")
	}
	if v, ok := s2.Hash("tasks").Get("t2"); !ok || string(v) != "beta" {
		t.Fatalf("t2 = %q, %v", v, ok)
	}
	if _, ok := s2.Hash("results").Get("t9"); ok {
		t.Fatal("expired field t9 survived recovery")
	}
	if v, ok := s2.Hash("results").Get("t3"); !ok || string(v) != "kept" {
		t.Fatalf("t3 = %q, %v", v, ok)
	}
}

// captureState returns the live fields of the named hashes for
// equivalence checks.
func captureState(s *Store, hashNames []string) map[string]map[string]string {
	st := map[string]map[string]string{}
	for _, hn := range hashNames {
		h := s.Hash(hn)
		fields := map[string]string{}
		for _, k := range h.Keys() {
			if v, ok := h.Get(k); ok {
				fields[k] = string(v)
			}
		}
		st[hn] = fields
	}
	return st
}

// TestRandomizedReplayEquivalence drives a live persistent store
// through a random op sequence (with snapshots forced mid-stream),
// then reopens from disk and checks the recovered state matches the
// live store observation-for-observation — the snapshot+tail replay
// equivalence contract.
func TestRandomizedReplayEquivalence(t *testing.T) {
	hashNames := []string{"h0", "h1", "h2"}
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			s := openPersistent(t, dir)
			for i := 0; i < 2000; i++ {
				h := s.Hash(hashNames[rng.Intn(len(hashNames))])
				field := fmt.Sprintf("f%d", rng.Intn(50))
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4, 5:
					h.Set(field, []byte(fmt.Sprintf("v%d", i)))
				case 6, 7, 8:
					h.Del(field)
				case 9:
					if rng.Intn(20) == 0 { // occasional forced checkpoint
						if err := s.Snapshot(); err != nil {
							t.Fatalf("Snapshot: %v", err)
						}
					}
				}
			}
			want := captureState(s, hashNames)
			s.Close()

			s2 := openPersistent(t, dir)
			defer s2.Close()
			got := captureState(s2, hashNames)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("recovered state diverged\n want: %+v\n  got: %+v", want, got)
			}
		})
	}
}

// TestTornJournalTailRecovery truncates the active WAL segment
// mid-record and verifies the store recovers the valid prefix.
func TestTornJournalTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openPersistent(t, dir)
	for i := 0; i < 10; i++ {
		s.Hash("h").Set(fmt.Sprintf("f%d", i), bytes.Repeat([]byte{'x'}, 100))
	}
	s.Close()

	// Find the newest segment and tear its tail.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".log" {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	if len(segs) == 0 {
		t.Fatal("no segments written")
	}
	last := filepath.Join(dir, segs[len(segs)-1])
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, data[:len(data)-40], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openPersistent(t, dir)
	defer s2.Close()
	h := s2.Hash("h")
	if n := h.Len(); n != 9 {
		t.Fatalf("recovered %d fields after torn tail, want 9", n)
	}
	stats, ok := s2.WALStats()
	if !ok || stats.TornRecords != 1 {
		t.Fatalf("WALStats = %+v, %v", stats, ok)
	}
}

// TestSnapshotterThresholds exercises the background checkpoint loop.
func TestSnapshotterThresholds(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(wal.Options{Dir: dir, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewPersistent(log, PersistOptions{
		SnapshotOps:      50,
		SnapshotInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 200; i++ {
		s.Hash("h").Set(fmt.Sprintf("f%d", i%10), []byte("v"))
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st, _ := s.WALStats(); st.Snapshots > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshotter never checkpointed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
