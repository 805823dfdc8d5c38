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
// StableBatch is an atomically published watermark: every version tagged
// with a batch at or below it is fully applied. The single writer (the
// consensus event loop) advances it after ApplyAll finishes all shards,
// so a snapshot read at asOf <= StableBatch can never observe a torn
// (half-applied) batch regardless of which shards it touches.
package store

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// GenesisBatch is the version assigned to the initial data load.
const GenesisBatch int64 = 0

// DefaultShards is the shard count used by New. Sixteen shards keep
// reader contention negligible at typical core counts while the per-shard
// maps stay large enough to amortize hashing.
const DefaultShards = 16

// version is one historical value of a key.
type version struct {
	batch int64
	value []byte
}

// shard is one lock domain of the keyspace. The padding keeps two shards'
// mutexes off one cache line so reader locks don't false-share.
type shard struct {
	mu   sync.RWMutex
	data map[string][]version
	_    [64]byte
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
	for i := range s.shards {
		s.shards[i].data = make(map[string][]version)
	}
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

// put writes one version into a shard; the caller holds the shard lock.
// Overwriting within the same batch replaces the version (last write
// wins), matching batch semantics where conflicting transactions never
// share a batch.
func (sh *shard) put(batch int64, key string, value []byte) {
	vs := sh.data[key]
	if n := len(vs); n > 0 && vs[n-1].batch == batch {
		vs[n-1].value = value
	} else {
		vs = append(vs, version{batch: batch, value: value})
	}
	sh.data[key] = vs
}

// getAsOf resolves a snapshot read inside a shard; the caller holds at
// least the read lock.
func (sh *shard) getAsOf(key string, asOf int64) Versioned {
	vs := sh.data[key]
	// First index with batch > asOf; the predecessor is the answer.
	i := sort.Search(len(vs), func(i int) bool { return vs[i].batch > asOf })
	if i == 0 {
		return Versioned{}
	}
	v := vs[i-1]
	return Versioned{Value: v.value, Writer: v.batch, Found: true}
}

// Load initializes keys at the genesis version. Intended for the initial
// data placement before the system starts.
func (s *Store) Load(kv map[string][]byte) {
	for k, v := range kv {
		sh := s.shardOf(k)
		sh.mu.Lock()
		sh.data[k] = []version{{batch: GenesisBatch, value: v}}
		sh.mu.Unlock()
	}
	s.advanceStable(GenesisBatch)
}

// forEachShardGroup visits every key grouped by shard, taking each
// shard's lock (write when write is set, read otherwise) exactly once
// around that shard's whole group. fn receives the shard (already
// locked) and the key's index. The grouping costs one index-slice
// allocation and an O(keys × distinct-shards) scan — for the small key
// counts of batch fan-outs that beats materializing O(ShardCount)
// per-shard slices per call.
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
	vs := sh.data[key]
	if len(vs) == 0 {
		return nil, 0, false
	}
	last := vs[len(vs)-1]
	return last.value, last.batch, true
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
	vs := sh.data[key]
	if len(vs) == 0 {
		return -1
	}
	return vs[len(vs)-1].batch
}

// LastWriters resolves the last-writer batch of many keys, grouping by
// shard so each shard lock is taken once. Results follow the order of
// keys; -1 marks never-written keys.
func (s *Store) LastWriters(keys []string) []int64 {
	out := make([]int64, len(keys))
	s.forEachShardGroup(keys, false, func(sh *shard, i int) {
		if vs := sh.data[keys[i]]; len(vs) > 0 {
			out[i] = vs[len(vs)-1].batch
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
// entries: for every key, the newest version with writer <= asOf. The
// iteration is per shard — each shard's read lock is held only for its
// own scan — so concurrent readers and the (single) writer are never
// stalled across the whole keyspace. Callers must ensure versions at
// asOf have not been pruned (Prune keepFrom <= asOf).
func (s *Store) ExportAsOf(asOf int64) []KV {
	out := make([]KV, 0, s.Keys())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k := range sh.data {
			if v := sh.getAsOf(k, asOf); v.Found {
				out = append(out, KV{Key: k, Value: v.Value, Writer: v.Writer})
			}
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(out, func(a, b KV) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// ImportAsOf replaces the store's content with an exported snapshot:
// every key gets exactly one version, tagged with its original writer
// batch, and the StableBatch watermark is set to asOf. Shards are
// replaced one write-lock at a time; a concurrent multi-shard snapshot
// read can therefore observe a half-installed state — safe in TransEdge
// because every read-only answer is Merkle-verified end to end, so a
// torn read surfaces as a failed client verification and a retry, never
// as silently wrong data (DESIGN.md §6).
func (s *Store) ImportAsOf(asOf int64, entries []KV) {
	byShard := make([][]KV, len(s.shards))
	for _, e := range entries {
		i := int(s.shardIndex(e.Key))
		byShard[i] = append(byShard[i], e)
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.data = make(map[string][]version, len(byShard[i]))
		for _, e := range byShard[i] {
			sh.data[e.Key] = []version{{batch: e.Writer, value: e.Value}}
		}
		sh.mu.Unlock()
	}
	s.advanceStable(asOf)
}

// Keys returns the number of distinct keys stored.
func (s *Store) Keys() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += len(sh.data)
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
	return len(sh.data[key])
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
// lifecycle hook calls so pruning never stalls the whole keyspace.
func (s *Store) PruneShard(i int, keepFrom int64) {
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for k, vs := range sh.data {
		j := sort.Search(len(vs), func(j int) bool { return vs[j].batch > keepFrom })
		// vs[j-1] is the version visible at keepFrom; keep it and later.
		if j > 1 {
			sh.data[k] = append(vs[:0:0], vs[j-1:]...)
		}
	}
}
