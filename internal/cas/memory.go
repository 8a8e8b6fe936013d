package cas

import (
	"fmt"
	"sync"
)

// Memory is an in-process chunk store, used by tests and as the hot
// tier of a Tiered store.
type Memory struct {
	mu     sync.RWMutex
	chunks map[string][]byte
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{chunks: make(map[string][]byte)}
}

// Put stores a copy of data under sha.
func (s *Memory) Put(sha string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.chunks[sha]; ok {
		return nil
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.chunks[sha] = cp
	return nil
}

// Get returns the chunk's bytes, verified against sha.
func (s *Memory) Get(sha string) ([]byte, error) {
	s.mu.RLock()
	data, ok := s.chunks[sha]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cas: get %s: %w", short(sha), ErrNotFound)
	}
	if got := SumHex(data); got != sha {
		return nil, fmt.Errorf("cas: get %s: chunk bytes hash to %s, want %s", short(sha), short(got), short(sha))
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}
