package buildcache

import (
	"sync"

	"repro/internal/obs"
)

// StageStore is a size-bounded FIFO cache for one stage of the incremental
// link pipeline (decoded programs). Entries are opaque to the store; the
// caller supplies a content-hash key and a size estimate, and the store
// evicts the oldest entries whenever either the entry count or the byte
// budget is exceeded.
//
// Eviction is strictly FIFO by insertion order — a deliberately simple
// policy whose correctness is easy to pin in tests: after an eviction the
// key misses (no stale serves), and re-inserting admits a fresh entry.
// All methods are safe for concurrent use and tolerate a nil receiver.
type StageStore struct {
	name       string
	maxEntries int
	maxBytes   int64

	// Registry counters (nil-tolerant) so a resident daemon's /metrics
	// exposes per-stage traffic as stage/<name>/{hits,misses,evictions}.
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter

	mu      sync.Mutex
	entries map[string]stageEntry
	order   []string // insertion order; front is next eviction victim
	bytes   int64
	stats   StageStats
}

// stageEntry is one cached value plus its accounted size.
type stageEntry struct {
	val  any
	size int64
}

// StageStats snapshots one store's traffic and occupancy.
type StageStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
}

// NewStageStore builds a store named for its pipeline stage. maxEntries and
// maxBytes bound occupancy (<= 0 selects 256 entries / 256 MiB); reg, when
// non-nil, receives the stage/<name>/* counters.
func NewStageStore(name string, maxEntries int, maxBytes int64, reg *obs.Registry) *StageStore {
	if maxEntries <= 0 {
		maxEntries = 256
	}
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	return &StageStore{
		name:       name,
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		hits:       reg.Counter("stage/" + name + "/hits"),
		misses:     reg.Counter("stage/" + name + "/misses"),
		evictions:  reg.Counter("stage/" + name + "/evictions"),
		entries:    make(map[string]stageEntry),
	}
}

// Name returns the stage name the store was created with.
func (s *StageStore) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Get returns the cached value for key. A nil store always misses.
func (s *StageStore) Get(key string) (any, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
		return e.val, true
	}
	s.misses.Add(1)
	return nil, false
}

// hit counts a lookup another caller's load answered.
func (s *StageStore) hit() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.stats.Hits++
	s.mu.Unlock()
	s.hits.Add(1)
}

// Put stores val under key with the given size estimate, evicting the
// oldest entries until both bounds hold. A duplicate key refreshes the
// value in place without changing its eviction position. An entry larger
// than the whole byte budget is not admitted.
func (s *StageStore) Put(key string, val any, size int64) {
	if s == nil || size > s.maxBytes {
		return
	}
	if size < 0 {
		size = 0
	}
	var evicted uint64
	s.mu.Lock()
	if old, ok := s.entries[key]; ok {
		s.bytes += size - old.size
		s.entries[key] = stageEntry{val, size}
	} else {
		s.entries[key] = stageEntry{val, size}
		s.order = append(s.order, key)
		s.bytes += size
	}
	for (len(s.order) > s.maxEntries || s.bytes > s.maxBytes) && len(s.order) > 0 {
		victim := s.order[0]
		s.order = s.order[1:]
		if e, ok := s.entries[victim]; ok {
			s.bytes -= e.size
			delete(s.entries, victim)
			evicted++
		}
	}
	s.stats.Evictions += evicted
	s.mu.Unlock()
	s.evictions.Add(evicted)
}

// Len returns the number of resident entries.
func (s *StageStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats snapshots the store's traffic counters and occupancy.
func (s *StageStore) Stats() StageStats {
	if s == nil {
		return StageStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.bytes
	return st
}
