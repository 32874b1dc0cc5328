package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Store is a resumable on-disk result cache: one JSON Result per line,
// keyed by job hash. Opening an existing store loads every valid line, so
// a sweep interrupted mid-run (crash, ^C, canceled context) resumes by
// re-running only the missing points. A torn line — the signature of an
// interrupt mid-write, or a lost sector after a crash — is skipped rather
// than fatal wherever it appears; on duplicate hashes the first valid line
// wins, matching Put's append-once semantics.
type Store struct {
	mu     sync.Mutex // guards f and byHash
	f      *os.File   // nilled by Close
	byHash map[string]Result
}

// StoreFileName is the result file created inside a sweep output directory.
const StoreFileName = "results.jsonl"

// OpenStore opens (creating if needed) the JSONL store at path. Existing
// results are loaded into the in-memory index.
func OpenStore(path string) (*Store, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("sweep: create store dir: %w", err)
		}
	}
	s := &Store{byHash: map[string]Result{}}
	if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var r Result
			if err := json.Unmarshal(line, &r); err != nil || r.Hash == "" {
				continue // torn or foreign line
			}
			if _, dup := s.byHash[r.Hash]; r.OK() && !dup {
				s.byHash[r.Hash] = r
			}
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open store: %w", err)
	}
	s.f = f
	return s, nil
}

// Len returns the number of cached results.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byHash)
}

// Get returns the cached result for a job hash.
func (s *Store) Get(hash string) (Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.byHash[hash]
	return r, ok
}

// Put appends a successful result. Failed results are not persisted — a
// resumed sweep should retry them. Duplicate hashes are ignored.
func (s *Store) Put(r Result) error {
	if !r.OK() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byHash[r.Hash]; ok {
		return nil
	}
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("sweep: encode result %s: %w", r.ID, err)
	}
	b = append(b, '\n')
	if _, err := s.f.Write(b); err != nil {
		return fmt.Errorf("sweep: append result %s: %w", r.ID, err)
	}
	s.byHash[r.Hash] = r
	return nil
}

// Close syncs and closes the backing file, so results appended by Put are
// durable once a sweep shuts down cleanly.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	serr := s.f.Sync()
	cerr := s.f.Close()
	s.f = nil
	if serr != nil {
		return fmt.Errorf("sweep: sync store: %w", serr)
	}
	return cerr
}
