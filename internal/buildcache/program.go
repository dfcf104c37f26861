package buildcache

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/obs"
)

// ProgramCache is the first stage store of the incremental link pipeline: a
// content-hash-keyed cache of merged, resolved link.Programs. A set of
// object modules is validated, merged, and symbol-resolved once per content;
// every later link of the same modules shares the resulting Program
// read-only — which is safe because nothing past MarkShared mutates a
// Program, and OM lifts it into its own symbolic form before transforming.
//
// All methods tolerate a nil receiver (every lookup misses, every insert is
// dropped), so callers thread an optional cache without branching.
//
// Concurrent first links of one module set merge it once: the first miss
// loads while later callers of the same key wait for its result.
type ProgramCache struct {
	store *StageStore

	mu      sync.Mutex
	flights map[string]*flight
}

// flight is one in-progress load; done closes when p and err are final.
type flight struct {
	done chan struct{}
	p    *link.Program
	err  error
}

// NewProgramCache builds a cache bounded to maxEntries programs (<= 0
// selects 64). reg, when non-nil, receives the stage/program/* counters.
func NewProgramCache(maxEntries int, reg *obs.Registry) *ProgramCache {
	if maxEntries <= 0 {
		maxEntries = 64
	}
	return &ProgramCache{
		store:   NewStageStore("program", maxEntries, 0, reg),
		flights: make(map[string]*flight),
	}
}

// ProgramKey derives the cache key for a module set: each module's content
// hash in link order plus the shared-library marking, the inputs that
// determine what Merge+MarkShared of those modules produce.
func ProgramKey(objs []*objfile.Object, shared ...string) string {
	h := sha256.New()
	writeStr := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeStr(keyVersion + "/program")
	for _, obj := range objs {
		writeStr(obj.Hash())
	}
	for _, name := range shared {
		writeStr("shared:" + name)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Get returns the cached Program for an explicit key.
func (pc *ProgramCache) Get(key string) (*link.Program, bool) {
	if pc == nil {
		return nil, false
	}
	v, ok := pc.store.Get(key)
	if !ok {
		return nil, false
	}
	return v.(*link.Program), true
}

// Put stores a merged Program under an explicit key. The caller promises
// the Program will not be mutated afterwards (MarkShared included).
func (pc *ProgramCache) Put(key string, p *link.Program) {
	if pc == nil {
		return
	}
	pc.store.Put(key, p, programSize(p))
}

// GetOrLoad returns the resident Program for key, calling load to build
// and cache it on a miss. The boolean reports a hit. While one caller
// loads a key, every other caller of that key waits and shares its
// result: the Program counts as a hit for them, an error fails them too.
// Only the loading caller's lookup counts as a miss.
func (pc *ProgramCache) GetOrLoad(key string, load func() (*link.Program, error)) (*link.Program, bool, error) {
	if pc == nil {
		p, err := load()
		return p, false, err
	}
	pc.mu.Lock()
	if f, ok := pc.flights[key]; ok {
		pc.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		pc.store.hit()
		return f.p, true, nil
	}
	if p, ok := pc.Get(key); ok {
		pc.mu.Unlock()
		return p, true, nil
	}
	f := &flight{done: make(chan struct{}), err: errLoadAbandoned}
	pc.flights[key] = f
	pc.mu.Unlock()
	defer func() {
		pc.mu.Lock()
		delete(pc.flights, key)
		pc.mu.Unlock()
		close(f.done)
	}()
	f.p, f.err = load()
	if f.err != nil {
		return nil, false, f.err
	}
	pc.Put(key, f.p)
	return f.p, false, nil
}

// errLoadAbandoned is what waiters see when the loading caller panicked.
var errLoadAbandoned = errors.New("buildcache: program load abandoned")

// GetOrMerge returns the resident Program for the module set, merging and
// caching it on first sight (GetOrLoad under ProgramKey). The boolean
// reports a cache hit. The shared names, when given, are applied with
// MarkShared before the Program is published (they are part of the key, so
// differently-marked links never alias).
func (pc *ProgramCache) GetOrMerge(objs []*objfile.Object, shared ...string) (*link.Program, bool, error) {
	if pc == nil {
		p, err := mergeMarked(objs, shared)
		return p, false, err
	}
	return pc.GetOrLoad(ProgramKey(objs, shared...), func() (*link.Program, error) {
		return mergeMarked(objs, shared)
	})
}

// Stats snapshots the underlying stage store.
func (pc *ProgramCache) Stats() StageStats {
	if pc == nil {
		return StageStats{}
	}
	return pc.store.Stats()
}

func mergeMarked(objs []*objfile.Object, shared []string) (*link.Program, error) {
	p, err := link.Merge(objs)
	if err != nil {
		return nil, err
	}
	if len(shared) > 0 {
		p.MarkShared(shared...)
	}
	return p, nil
}

// programSize estimates a Program's resident footprint for the byte bound:
// section bytes dominate, with a flat allowance per symbol and relocation.
func programSize(p *link.Program) int64 {
	var n int64
	for _, obj := range p.Objects {
		for k := range obj.Sections {
			n += int64(len(obj.Sections[k].Data))
		}
		n += int64(len(obj.Symbols))*96 + int64(len(obj.Relocs))*48
	}
	return n
}
