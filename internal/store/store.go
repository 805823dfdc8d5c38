// Package store implements the multi-version key-value storage used by
// every TransEdge replica.
//
// Each committed batch writes a new version of the keys it touches, tagged
// with the batch ID. Point-in-time reads ("value of k as of batch i")
// power both OCC validation (a read set records the writer batch of each
// value) and the second round of the read-only protocol, which serves the
// snapshot of an earlier batch after later batches have committed.
//
// The engine is sharded: keys hash (FNV-1a) onto a power-of-two number of
// shards, each guarded by its own RWMutex, so concurrent readers — the
// off-loop read executors serving snapshot transactions — contend only
// per shard, never on one global lock. The batch APIs (ApplyAll,
// MultiGetAsOf, LastWriters) group their keys by shard and take each
// shard lock exactly once per call.
//
// A shard keeps every key's newest version inline in one key-sorted slice
// and looks keys up by binary search; older versions live in a per-shard
// history map that holds only keys overwritten inside the retained window
// (DESIGN.md §5, "Shard layout").
//
// StableBatch is an atomically published watermark: every version tagged
// with a batch at or below it is fully applied. The single writer (the
// consensus event loop) advances it after ApplyAll finishes all shards,
// so a snapshot read at asOf <= StableBatch can never observe a torn
// (half-applied) batch regardless of which shards it touches.
package store

import (
	"iter"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// GenesisBatch is the version assigned to the initial data load.
const GenesisBatch int64 = 0

// DefaultShards is the shard count used by New. Sixteen shards keep
// reader contention negligible at typical core counts while each shard's
// sorted slice stays short enough for a cheap binary search.
const DefaultShards = 16

// entry is one key's newest version: 48 bytes, held inline in the shard's
// sorted slice, so a key costs no allocation of its own.
type entry struct {
	key   string
	batch int64
	value []byte
}

// version is one superseded value of a key, kept in the shard's history.
type version struct {
	batch int64
	value []byte
}

// shard is one lock domain of the keyspace. The padding keeps two shards'
// mutexes off one cache line so reader locks don't false-share.
type shard struct {
	mu sync.RWMutex
	// entries holds every key's newest version, strictly ascending by key.
	entries []entry
	// history holds, per overwritten key, its older versions in ascending
	// batch order (each below the key's entry). Pruning drops what no
	// servable snapshot can see, and the map itself once it is empty (nil
	// until the first overwrite).
	history map[string][]version
	_       [64]byte
}

// Store is a thread-safe sharded multi-version map. Versions for a key
// are kept in strictly increasing batch order; ApplyAll must be called
// with non-decreasing batch IDs from a single writer (the SMR log already
// serializes batches).
type Store struct {
	shards []shard
	mask   uint64
	// stable is the StableBatch watermark: the newest batch whose writes
	// are fully applied across all shards. -1 until the first Load/Apply.
	stable atomic.Int64
}

// New returns an empty store with DefaultShards shards.
func New() *Store { return NewSharded(DefaultShards) }

// NewSharded returns an empty store with n shards, rounded up to a power
// of two (n <= 0 selects DefaultShards; 1 degenerates to a single-lock
// store).
func NewSharded(n int) *Store {
	if n <= 0 {
		n = DefaultShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	s := &Store{shards: make([]shard, size), mask: uint64(size - 1)}
	s.stable.Store(-1)
	return s
}

// ShardCount returns the number of shards (a power of two).
func (s *Store) ShardCount() int { return len(s.shards) }

// shardIndex maps a key to its shard with inline FNV-1a.
func (s *Store) shardIndex(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h & s.mask
}

func (s *Store) shardOf(key string) *shard { return &s.shards[s.shardIndex(key)] }

// StableBatch returns the newest batch whose writes are fully applied on
// every shard. Snapshot reads at or below this watermark never race an
// in-progress ApplyAll.
func (s *Store) StableBatch() int64 { return s.stable.Load() }

// advanceStable ratchets the watermark up to batch.
func (s *Store) advanceStable(batch int64) {
	for {
		cur := s.stable.Load()
		if batch <= cur || s.stable.CompareAndSwap(cur, batch) {
			return
		}
	}
}

func compareEntries(a, b entry) int { return strings.Compare(a.key, b.key) }

// find binary-searches the shard for key: its index and whether it is
// there (if not, the index is where it would be inserted). The caller
// holds at least the read lock.
func (sh *shard) find(key string) (int, bool) {
	lo, hi := 0, len(sh.entries)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if sh.entries[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(sh.entries) && sh.entries[lo].key == key
}

// put writes one version into a shard; the caller holds the shard lock.
// A new key is inserted in place, shifting the shard's later entries.
// Overwriting within the same batch replaces the version (last write
// wins), matching batch semantics where conflicting transactions never
// share a batch.
func (sh *shard) put(batch int64, key string, value []byte) {
	i, ok := sh.find(key)
	if !ok {
		sh.entries = slices.Insert(sh.entries, i, entry{key: key, batch: batch, value: value})
		return
	}
	e := &sh.entries[i]
	if e.batch != batch {
		if sh.history == nil {
			sh.history = make(map[string][]version)
		}
		sh.history[key] = append(sh.history[key], version{batch: e.batch, value: e.value})
		e.batch = batch
	}
	e.value = value
}

// getAsOf resolves a snapshot read inside a shard; the caller holds at
// least the read lock.
func (sh *shard) getAsOf(key string, asOf int64) Versioned {
	i, ok := sh.find(key)
	if !ok {
		return Versioned{}
	}
	return sh.entryAsOf(&sh.entries[i], asOf)
}

// entryAsOf resolves e's key at asOf: e itself, or the newest older
// version at or below asOf from the history.
func (sh *shard) entryAsOf(e *entry, asOf int64) Versioned {
	if e.batch <= asOf {
		return Versioned{Value: e.value, Writer: e.batch, Found: true}
	}
	vs := sh.history[e.key]
	// First index with batch > asOf; the predecessor is the answer.
	j := sort.Search(len(vs), func(j int) bool { return vs[j].batch > asOf })
	if j == 0 {
		return Versioned{}
	}
	v := vs[j-1]
	return Versioned{Value: v.value, Writer: v.batch, Found: true}
}

// shardRuns splits all (iterated twice) over the shards, into unsorted
// runs sized exactly to each shard's share.
func (s *Store) shardRuns(all iter.Seq[entry]) [][]entry {
	counts := make([]int, len(s.shards))
	for e := range all {
		counts[s.shardIndex(e.key)]++
	}
	runs := make([][]entry, len(s.shards))
	for si, c := range counts {
		if c > 0 {
			runs[si] = make([]entry, 0, c)
		}
	}
	for e := range all {
		si := s.shardIndex(e.key)
		runs[si] = append(runs[si], e)
	}
	return runs
}

// Load initializes keys at the genesis version: the initial data
// placement, on an empty store, before the system starts. Every shard's
// slice is sized exactly. Loading into a store that already holds keys
// panics.
func (s *Store) Load(kv map[string][]byte) {
	runs := s.shardRuns(func(yield func(entry) bool) {
		for k, v := range kv {
			if !yield(entry{key: k, batch: GenesisBatch, value: v}) {
				return
			}
		}
	})
	for si, run := range runs {
		if len(run) == 0 {
			continue
		}
		slices.SortFunc(run, compareEntries)
		sh := &s.shards[si]
		sh.mu.Lock()
		if len(sh.entries) > 0 {
			sh.mu.Unlock()
			panic("store: Load on a non-empty store")
		}
		sh.entries = run
		sh.mu.Unlock()
	}
	s.advanceStable(GenesisBatch)
}

// forEachShardGroup visits every key grouped by shard, taking each
// shard's lock (write when write is set, read otherwise) exactly once
// around that shard's whole group. fn receives the shard (already locked)
// and the key's index.
// The grouping costs one index-slice allocation and an O(keys ×
// distinct-shards) scan — for the small key counts of batch fan-outs that
// beats materializing O(ShardCount) per-shard slices per call.
func (s *Store) forEachShardGroup(keys []string, write bool, fn func(sh *shard, i int)) {
	if len(keys) == 0 {
		return
	}
	const visited = ^uint64(0)
	idx := make([]uint64, len(keys))
	for i, k := range keys {
		idx[i] = s.shardIndex(k)
	}
	for i := range keys {
		if idx[i] == visited {
			continue
		}
		si := idx[i]
		sh := &s.shards[si]
		if write {
			sh.mu.Lock()
		} else {
			sh.mu.RLock()
		}
		for j := i; j < len(keys); j++ {
			if idx[j] == si {
				fn(sh, j)
				idx[j] = visited
			}
		}
		if write {
			sh.mu.Unlock()
		} else {
			sh.mu.RUnlock()
		}
	}
}

// ApplyAll writes a whole batch: keys are grouped by shard and each shard
// lock is taken exactly once. After every shard is written the
// StableBatch watermark advances to batch (also for empty write sets, so
// the watermark tracks delivery of write-free batches too).
func (s *Store) ApplyAll(batch int64, writes map[string][]byte) {
	if len(writes) > 0 {
		keys := make([]string, 0, len(writes))
		vals := make([][]byte, 0, len(writes))
		for k, v := range writes {
			keys = append(keys, k)
			vals = append(vals, v)
		}
		s.forEachShardGroup(keys, true, func(sh *shard, i int) {
			sh.put(batch, keys[i], vals[i])
		})
	}
	s.advanceStable(batch)
}

// Get returns the latest committed value of key and the batch that wrote
// it.
func (s *Store) Get(key string) (value []byte, writer int64, ok bool) {
	sh := s.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	i, ok := sh.find(key)
	if !ok {
		return nil, 0, false
	}
	e := &sh.entries[i]
	return e.value, e.batch, true
}

// GetAsOf returns the value of key as of the given batch (the newest
// version with writer batch <= asOf) and the writer batch.
func (s *Store) GetAsOf(key string, asOf int64) (value []byte, writer int64, ok bool) {
	sh := s.shardOf(key)
	sh.mu.RLock()
	v := sh.getAsOf(key, asOf)
	sh.mu.RUnlock()
	return v.Value, v.Writer, v.Found
}

// Versioned is one MultiGetAsOf answer: the value and the batch that
// wrote it, or Found == false if the key has no version at the snapshot.
type Versioned struct {
	Value  []byte
	Writer int64
	Found  bool
}

// MultiGetAsOf resolves a snapshot read of many keys in one pass: keys
// are grouped by shard and each shard's read lock is taken exactly once.
// Results are returned in the order of keys. Reads at asOf <=
// StableBatch are guaranteed torn-free (see the package comment).
func (s *Store) MultiGetAsOf(keys []string, asOf int64) []Versioned {
	out := make([]Versioned, len(keys))
	s.forEachShardGroup(keys, false, func(sh *shard, i int) {
		out[i] = sh.getAsOf(keys[i], asOf)
	})
	return out
}

// LastWriter returns the batch that last wrote key, or -1 if the key has
// never been written.
func (s *Store) LastWriter(key string) int64 {
	sh := s.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	i, ok := sh.find(key)
	if !ok {
		return -1
	}
	return sh.entries[i].batch
}

// LastWriters resolves the last-writer batch of many keys, grouping by
// shard so each shard lock is taken once. Results follow the order of
// keys; -1 marks never-written keys.
func (s *Store) LastWriters(keys []string) []int64 {
	out := make([]int64, len(keys))
	s.forEachShardGroup(keys, false, func(sh *shard, i int) {
		if j, ok := sh.find(keys[i]); ok {
			out[i] = sh.entries[j].batch
		} else {
			out[i] = -1
		}
	})
	return out
}

// KV is one key's state in an exported snapshot: the value visible at
// the export batch and the batch that wrote it. The writer rides along
// because OCC validation on an importing replica compares read versions
// against last-writer batches, which the values alone cannot restore.
type KV struct {
	Key    string
	Value  []byte
	Writer int64
}

// ExportAsOf captures the snapshot at asOf as a key-sorted slice of KV
// entries: for every key, the newest version with writer <= asOf. Each
// shard's run is copied out under that shard's read lock alone — so
// concurrent readers and the (single) writer are never stalled across
// the whole keyspace — and comes out key-sorted, so the runs are merged,
// not sorted: two allocations, whatever the key count. Callers must
// ensure versions at asOf have not been pruned (Prune keepFrom <= asOf).
func (s *Store) ExportAsOf(asOf int64) []KV {
	runs := make([]KV, 0, s.Keys())
	var boundBuf [DefaultShards + 1]int
	bounds := append(boundBuf[:0], 0)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for j := range sh.entries {
			if v := sh.entryAsOf(&sh.entries[j], asOf); v.Found {
				runs = append(runs, KV{Key: sh.entries[j].key, Value: v.Value, Writer: v.Writer})
			}
		}
		sh.mu.RUnlock()
		if len(runs) > bounds[len(bounds)-1] {
			bounds = append(bounds, len(runs))
		}
	}
	return mergeRuns(runs, bounds)
}

// mergeRuns merges the key-sorted, pairwise disjoint runs
// runs[bounds[i]:bounds[i+1]] two at a time: each round halves the run
// count and writes into the other of two buffers, runs and one more of
// its length, and the last round's buffer is the result. Every element
// costs one comparison per round, log2(runs) in all.
func mergeRuns(runs []KV, bounds []int) []KV {
	if len(bounds) <= 2 {
		return runs
	}
	src, dst := runs, make([]KV, len(runs))
	for len(bounds) > 2 {
		n := 1
		for i := 0; i+1 < len(bounds); i += 2 {
			lo, mid, hi := bounds[i], bounds[i+1], bounds[i+1]
			if i+2 < len(bounds) {
				hi = bounds[i+2]
			}
			merge2(dst[lo:hi], src[lo:mid], src[mid:hi])
			bounds[n] = hi // n <= i+1: this round reads on from i+2
			n++
		}
		bounds = bounds[:n]
		src, dst = dst, src
	}
	return src
}

// merge2 merges the key-sorted runs a and b into dst, len(a)+len(b) long.
func merge2(dst, a, b []KV) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Key < b[j].Key {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// ImportAsOf replaces the store's content with an exported snapshot:
// every key gets exactly one version, tagged with its original writer
// batch, and the StableBatch watermark is set to asOf. Each shard's run is
// sized exactly; exports are key-sorted, and a run that is not is sorted
// here (a repeated key keeps its last entry). Shards are replaced one
// write-lock at a time; a concurrent multi-shard snapshot read can
// therefore observe a half-installed state — safe in TransEdge because
// every read-only answer is Merkle-verified end to end, so a torn read
// surfaces as a failed client verification and a retry, never as
// silently wrong data (DESIGN.md §6).
func (s *Store) ImportAsOf(asOf int64, entries []KV) {
	runs := s.shardRuns(func(yield func(entry) bool) {
		for _, e := range entries {
			if !yield(entry{key: e.Key, batch: e.Writer, value: e.Value}) {
				return
			}
		}
	})
	for i := range s.shards {
		run := sortedRun(runs[i])
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.entries, sh.history = run, nil
		sh.mu.Unlock()
	}
	s.advanceStable(asOf)
}

// sortedRun returns run strictly ascending by key: as is when it already
// is, else stably sorted with only the last of each repeated key kept.
func sortedRun(run []entry) []entry {
	i := 1
	for i < len(run) && run[i-1].key < run[i].key {
		i++
	}
	if i >= len(run) {
		return run
	}
	slices.SortStableFunc(run, compareEntries)
	out := run[:0]
	for i, e := range run {
		if i+1 < len(run) && run[i+1].key == e.key {
			continue
		}
		out = append(out, e)
	}
	clear(run[len(out):])
	return out
}

// Keys returns the number of distinct keys stored.
func (s *Store) Keys() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += len(sh.entries)
		sh.mu.RUnlock()
	}
	return total
}

// VersionCount returns the number of retained versions of key, for tests
// and introspection tooling.
func (s *Store) VersionCount(key string) int {
	sh := s.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if _, ok := sh.find(key); !ok {
		return 0
	}
	return 1 + len(sh.history[key])
}

// Prune drops versions strictly older than the newest version at or below
// keepFrom for every key, bounding memory in long runs while preserving
// the ability to serve snapshots at or after keepFrom. The whole-store
// form iterates the shards; long-running replicas instead spread the work
// over time with PruneShard so no single call stalls writers.
func (s *Store) Prune(keepFrom int64) {
	for i := range s.shards {
		s.PruneShard(i, keepFrom)
	}
}

// PruneShard prunes one shard (0 <= i < ShardCount), holding only that
// shard's write lock for the duration — the incremental unit the periodic
// lifecycle hook calls so pruning never stalls the whole keyspace. Only
// the history is visited: a key never overwritten has nothing to drop.
func (s *Store) PruneShard(i int, keepFrom int64) {
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for k, vs := range sh.history {
		j, _ := sh.find(k)
		if sh.entries[j].batch <= keepFrom {
			// The newest version is the one visible at keepFrom.
			delete(sh.history, k)
			continue
		}
		j = sort.Search(len(vs), func(j int) bool { return vs[j].batch > keepFrom })
		// vs[j-1] is the version visible at keepFrom; keep it and later.
		if j > 1 {
			sh.history[k] = append(vs[:0:0], vs[j-1:]...)
		}
	}
	if len(sh.history) == 0 {
		sh.history = nil
	}
}
