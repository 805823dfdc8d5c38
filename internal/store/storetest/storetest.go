// Package storetest is the reusable conformance suite for store.Engine
// implementations. Any backend that slots in behind the Engine interface
// — the sharded in-memory MVCC store, a future LSM or mmap'd file store —
// runs the same suite and must exhibit identical observable behavior:
// the durability layer (WAL replay, checkpoint import) and the read-only
// protocol both assume these semantics, so a backend that passes here is
// safe to wire into a replica.
//
// Usage:
//
//	func TestMyEngine(t *testing.T) {
//		storetest.Run(t, func() store.Engine { return myengine.New() })
//	}
package storetest

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"transedge/internal/store"
)

// Run exercises every Engine method against mk()-fresh instances. Each
// property runs as its own subtest so a failing backend reports exactly
// which part of the contract it breaks.
func Run(t *testing.T, mk func() store.Engine) {
	t.Run("EmptyEngine", func(t *testing.T) { testEmpty(t, newEngine(t, mk)) })
	t.Run("LoadGenesis", func(t *testing.T) { testLoad(t, newEngine(t, mk)) })
	t.Run("ApplyAndSnapshots", func(t *testing.T) { testApplyAndSnapshots(t, newEngine(t, mk)) })
	t.Run("EmptyBatchAdvancesWatermark", func(t *testing.T) { testEmptyBatch(t, newEngine(t, mk)) })
	t.Run("BatchedReadsMatchPointReads", func(t *testing.T) { testBatchedReads(t, newEngine(t, mk)) })
	t.Run("ExportImportRoundTrip", func(t *testing.T) { testExportImport(t, mk, mk) })
	t.Run("PruneKeepsServableSnapshot", func(t *testing.T) { testPrune(t, newEngine(t, mk)) })
	t.Run("PruneShardCoversAllShards", func(t *testing.T) { testPruneShard(t, newEngine(t, mk)) })
	t.Run("RandomizedAgainstModel", func(t *testing.T) { testRandomized(t, newEngine(t, mk)) })
	t.Run("ConcurrentSnapshotStress", func(t *testing.T) { testConcurrentStress(t, newEngine(t, mk)) })
}

// RunCross exercises cross-backend state transfer: a snapshot exported
// from one backend imports into the other with identical reads and
// provenance, in both directions. This is what lets a mixed fleet (or a
// migration) move replica state between engines.
func RunCross(t *testing.T, mkA, mkB func() store.Engine) {
	t.Run("ExportImportAToB", func(t *testing.T) { testExportImport(t, mkA, mkB) })
	t.Run("ExportImportBToA", func(t *testing.T) { testExportImport(t, mkB, mkA) })
}

// newEngine builds a fresh engine and ties its lifecycle to the test:
// backends with background goroutines (e.g. an LSM compactor) expose
// Close, and the suite shuts them down so goroutine-leak and race
// checks see a quiet engine at test end.
func newEngine(t *testing.T, mk func() store.Engine) store.Engine {
	t.Helper()
	e := mk()
	if c, ok := e.(interface{ Close() }); ok {
		t.Cleanup(c.Close)
	}
	return e
}

func testEmpty(t *testing.T, e store.Engine) {
	if _, _, ok := e.Get("missing"); ok {
		t.Fatal("Get on an empty engine reported ok")
	}
	if _, _, ok := e.GetAsOf("missing", 100); ok {
		t.Fatal("GetAsOf on an empty engine reported ok")
	}
	if w := e.LastWriter("missing"); w != -1 {
		t.Fatalf("LastWriter on an empty engine = %d, want -1", w)
	}
	if got := e.LastWriters([]string{"a", "b"}); got[0] != -1 || got[1] != -1 {
		t.Fatalf("LastWriters on an empty engine = %v, want [-1 -1]", got)
	}
	if n := e.Keys(); n != 0 {
		t.Fatalf("Keys on an empty engine = %d", n)
	}
	if n := e.VersionCount("missing"); n != 0 {
		t.Fatalf("VersionCount on an empty engine = %d", n)
	}
	if got := e.ExportAsOf(1 << 30); len(got) != 0 {
		t.Fatalf("ExportAsOf on an empty engine returned %d entries", len(got))
	}
	if sc := e.ShardCount(); sc < 1 || sc&(sc-1) != 0 {
		t.Fatalf("ShardCount = %d, want a power of two", sc)
	}
	vs := e.MultiGetAsOf([]string{"x", "y"}, 5)
	if len(vs) != 2 || vs[0].Found || vs[1].Found {
		t.Fatalf("MultiGetAsOf on an empty engine = %v", vs)
	}
}

func testLoad(t *testing.T, e store.Engine) {
	e.Load(map[string][]byte{"a": []byte("1"), "b": []byte("2")})
	if e.StableBatch() != store.GenesisBatch {
		t.Fatalf("StableBatch after Load = %d, want %d", e.StableBatch(), store.GenesisBatch)
	}
	v, w, ok := e.Get("a")
	if !ok || string(v) != "1" || w != store.GenesisBatch {
		t.Fatalf("Get(a) after Load = (%q, %d, %v)", v, w, ok)
	}
	if e.Keys() != 2 {
		t.Fatalf("Keys after Load = %d, want 2", e.Keys())
	}
	if w := e.LastWriter("b"); w != store.GenesisBatch {
		t.Fatalf("LastWriter(b) after Load = %d", w)
	}
}

func testApplyAndSnapshots(t *testing.T, e store.Engine) {
	e.Load(map[string][]byte{"k": []byte("g")})
	e.ApplyAll(1, map[string][]byte{"k": []byte("v1"), "other": []byte("o1")})
	e.ApplyAll(2, map[string][]byte{"k": []byte("v2")})
	e.ApplyAll(4, map[string][]byte{"k": []byte("v4")})

	if e.StableBatch() != 4 {
		t.Fatalf("StableBatch = %d, want 4", e.StableBatch())
	}
	// Newest version wins point reads.
	if v, w, ok := e.Get("k"); !ok || string(v) != "v4" || w != 4 {
		t.Fatalf("Get(k) = (%q, %d, %v)", v, w, ok)
	}
	// Snapshots resolve to the newest version at or below asOf, including
	// the gap batch 3 (written by nobody) and batches before the first write.
	wantAsOf := []struct {
		asOf   int64
		value  string
		writer int64
		ok     bool
	}{
		{0, "g", 0, true}, {1, "v1", 1, true}, {2, "v2", 2, true},
		{3, "v2", 2, true}, {4, "v4", 4, true}, {99, "v4", 4, true},
	}
	for _, want := range wantAsOf {
		v, w, ok := e.GetAsOf("k", want.asOf)
		if ok != want.ok || string(v) != want.value || w != want.writer {
			t.Fatalf("GetAsOf(k, %d) = (%q, %d, %v), want (%q, %d, %v)",
				want.asOf, v, w, ok, want.value, want.writer, want.ok)
		}
	}
	// A key born at batch 1 is invisible at snapshot 0.
	if _, _, ok := e.GetAsOf("other", 0); ok {
		t.Fatal("GetAsOf(other, 0) found a key born at batch 1")
	}
	if e.VersionCount("k") != 4 {
		t.Fatalf("VersionCount(k) = %d, want 4", e.VersionCount("k"))
	}
}

func testEmptyBatch(t *testing.T, e store.Engine) {
	e.Load(map[string][]byte{"k": []byte("v")})
	e.ApplyAll(1, map[string][]byte{"k": []byte("v1")})
	// Write-free batches still advance the watermark — delivery of a
	// batch with no local writes must make snapshots at its ID servable.
	e.ApplyAll(2, nil)
	e.ApplyAll(3, map[string][]byte{})
	if e.StableBatch() != 3 {
		t.Fatalf("StableBatch after empty batches = %d, want 3", e.StableBatch())
	}
	if v, w, ok := e.GetAsOf("k", 3); !ok || string(v) != "v1" || w != 1 {
		t.Fatalf("GetAsOf(k, 3) = (%q, %d, %v)", v, w, ok)
	}
}

// testBatchedReads pins the equivalence the off-loop read executors rely
// on: MultiGetAsOf and LastWriters must agree with their point-read
// forms, in input order, including duplicate and missing keys.
func testBatchedReads(t *testing.T, e store.Engine) {
	e.Load(map[string][]byte{"a": []byte("ga"), "b": []byte("gb"), "c": []byte("gc")})
	e.ApplyAll(1, map[string][]byte{"a": []byte("a1"), "c": []byte("c1")})
	e.ApplyAll(2, map[string][]byte{"b": []byte("b2")})

	keys := []string{"a", "missing", "c", "b", "a", "c"}
	for asOf := int64(0); asOf <= 3; asOf++ {
		got := e.MultiGetAsOf(keys, asOf)
		if len(got) != len(keys) {
			t.Fatalf("MultiGetAsOf returned %d results for %d keys", len(got), len(keys))
		}
		for i, k := range keys {
			v, w, ok := e.GetAsOf(k, asOf)
			if got[i].Found != ok || got[i].Writer != w || !bytes.Equal(got[i].Value, v) {
				t.Fatalf("MultiGetAsOf[%d] (key %q, asOf %d) = %+v, point read = (%q, %d, %v)",
					i, k, asOf, got[i], v, w, ok)
			}
		}
	}
	ws := e.LastWriters(keys)
	for i, k := range keys {
		if want := e.LastWriter(k); ws[i] != want {
			t.Fatalf("LastWriters[%d] (key %q) = %d, want %d", i, k, ws[i], want)
		}
	}
}

// testExportImport pins the state-transfer contract: importing a snapshot
// exported at a batch boundary reproduces every visible read — values and
// writer provenance — at that boundary, and sets the watermark to it.
func testExportImport(t *testing.T, mkSrc, mkDst func() store.Engine) {
	src := newEngine(t, mkSrc)
	src.Load(map[string][]byte{"a": []byte("ga"), "b": []byte("gb")})
	src.ApplyAll(1, map[string][]byte{"a": []byte("a1"), "c": []byte("c1")})
	src.ApplyAll(2, map[string][]byte{"b": []byte("b2"), "d": []byte("d2")})
	src.ApplyAll(3, map[string][]byte{"a": []byte("a3")})

	const asOf = 2
	snap := src.ExportAsOf(asOf)
	if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i].Key < snap[j].Key }) {
		t.Fatal("ExportAsOf is not key-sorted")
	}
	// The batch-3 write must not leak into the snapshot at 2.
	for _, kv := range snap {
		if kv.Writer > asOf {
			t.Fatalf("exported entry %q has writer %d > asOf %d", kv.Key, kv.Writer, asOf)
		}
	}

	dst := newEngine(t, mkDst)
	dst.Load(map[string][]byte{"stale": []byte("gone")}) // Import must replace, not merge.
	dst.ImportAsOf(asOf, snap)

	if dst.StableBatch() != asOf {
		t.Fatalf("StableBatch after import = %d, want %d", dst.StableBatch(), asOf)
	}
	if dst.Keys() != len(snap) {
		t.Fatalf("Keys after import = %d, want %d (stale content must be dropped)",
			dst.Keys(), len(snap))
	}
	for _, k := range []string{"a", "b", "c", "d", "stale"} {
		sv, sw, sok := src.GetAsOf(k, asOf)
		dv, dw, dok := dst.GetAsOf(k, asOf)
		if k == "stale" {
			sok = false // never existed on the source
		}
		if sok != dok || sw != dw || !bytes.Equal(sv, dv) {
			t.Fatalf("GetAsOf(%q, %d): source (%q, %d, %v) vs import (%q, %d, %v)",
				k, asOf, sv, sw, sok, dv, dw, dok)
		}
	}
	// A re-export of the imported snapshot is byte-identical.
	if got := dst.ExportAsOf(asOf); !snapshotsEqual(got, snap) {
		t.Fatal("re-export after import differs from the original snapshot")
	}
}

func testPrune(t *testing.T, e store.Engine) {
	e.Load(map[string][]byte{"k": []byte("g"), "young": []byte("gy")})
	for b := int64(1); b <= 6; b++ {
		e.ApplyAll(b, map[string][]byte{"k": []byte(fmt.Sprintf("v%d", b))})
	}
	before := e.ExportAsOf(4)

	e.Prune(4)

	// The snapshot at keepFrom (and later) must be unaffected.
	if got := e.ExportAsOf(4); !snapshotsEqual(got, before) {
		t.Fatal("Prune changed the snapshot at keepFrom")
	}
	for _, asOf := range []int64{4, 5, 6} {
		want := fmt.Sprintf("v%d", asOf)
		if v, w, ok := e.GetAsOf("k", asOf); !ok || string(v) != want || w != asOf {
			t.Fatalf("after Prune, GetAsOf(k, %d) = (%q, %d, %v)", asOf, v, w, ok)
		}
	}
	// Versions strictly below the kept one may be dropped; the retained
	// count is keepFrom's version plus the two newer ones.
	if n := e.VersionCount("k"); n != 3 {
		t.Fatalf("VersionCount(k) after Prune = %d, want 3", n)
	}
	// A key whose only version already satisfies keepFrom is untouched.
	if v, w, ok := e.GetAsOf("young", 6); !ok || string(v) != "gy" || w != store.GenesisBatch {
		t.Fatalf("after Prune, GetAsOf(young, 6) = (%q, %d, %v)", v, w, ok)
	}
}

func testPruneShard(t *testing.T, e store.Engine) {
	e.Load(map[string][]byte{})
	// Enough keys that every shard of a 16-way store holds a few.
	for b := int64(1); b <= 5; b++ {
		writes := make(map[string][]byte)
		for i := 0; i < 64; i++ {
			writes[fmt.Sprintf("key-%03d", i)] = []byte(fmt.Sprintf("v%d-%d", b, i))
		}
		e.ApplyAll(b, writes)
	}
	before := e.ExportAsOf(3)
	// Incremental pruning: one shard per call, as the lifecycle hook does.
	for i := 0; i < e.ShardCount(); i++ {
		e.PruneShard(i, 3)
	}
	if got := e.ExportAsOf(3); !snapshotsEqual(got, before) {
		t.Fatal("PruneShard over all shards changed the snapshot at keepFrom")
	}
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("key-%03d", i)
		if n := e.VersionCount(k); n != 3 {
			t.Fatalf("VersionCount(%s) = %d, want 3 (versions 3..5)", k, n)
		}
	}
}

// modelVersion mirrors one retained version in the reference model.
type modelVersion struct {
	batch int64
	value []byte
}

// testRandomized drives the engine and a naive single-map reference model
// through the same seeded workload — applies, snapshot reads, prunes, and
// one export/import — and fails on the first divergence. This is the
// cross-implementation equivalence check: every backend is compared
// against the same executable specification. Every failure is prefixed
// with the seed and the index of the op that exposed it, so a red run on
// a new backend reproduces from the log alone.
func testRandomized(t *testing.T, e store.Engine) {
	const seed = 7
	rng := rand.New(rand.NewSource(seed))
	// op counts engine-visible operations (Load, ApplyAll, Prune,
	// export/import, snapshot checks) in execution order.
	var op int
	failf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("[seed=%d op=%d] %s", seed, op, fmt.Sprintf(format, args...))
	}
	model := map[string][]modelVersion{}
	keyAt := func(i int) string { return fmt.Sprintf("rk-%02d", i) }
	const keySpace = 24

	modelGetAsOf := func(k string, asOf int64) (string, int64, bool) {
		vs := model[k]
		for i := len(vs) - 1; i >= 0; i-- {
			if vs[i].batch <= asOf {
				return string(vs[i].value), vs[i].batch, true
			}
		}
		return "", 0, false
	}
	check := func(batch int64) {
		t.Helper()
		keys := make([]string, keySpace)
		for i := range keys {
			keys[i] = keyAt(i)
		}
		asOf := batch - int64(rng.Intn(4))
		got := e.MultiGetAsOf(keys, asOf)
		for i, k := range keys {
			mv, mw, mok := modelGetAsOf(k, asOf)
			if got[i].Found != mok || got[i].Writer != mw || string(got[i].Value) != mv {
				failf("batch %d: MultiGetAsOf(%q, %d) = %+v, model = (%q, %d, %v)",
					batch, k, asOf, got[i], mv, mw, mok)
			}
		}
	}

	genesis := map[string][]byte{}
	for i := 0; i < keySpace/2; i++ {
		genesis[keyAt(i)] = []byte(fmt.Sprintf("g%d", i))
	}
	e.Load(genesis)
	for k, v := range genesis {
		model[k] = []modelVersion{{batch: store.GenesisBatch, value: v}}
	}

	var pruned int64
	for batch := int64(1); batch <= 120; batch++ {
		writes := map[string][]byte{}
		for n := rng.Intn(5); n > 0; n-- {
			k := keyAt(rng.Intn(keySpace))
			writes[k] = []byte(fmt.Sprintf("b%d-%s", batch, k))
		}
		op++
		e.ApplyAll(batch, writes)
		for k, v := range writes {
			model[k] = append(model[k], modelVersion{batch: batch, value: v})
		}
		if e.StableBatch() != batch {
			failf("StableBatch = %d after applying batch %d", e.StableBatch(), batch)
		}

		switch {
		case batch%17 == 0:
			// Prune both sides; later snapshot reads stay >= the floor.
			pruned = batch - 2
			op++
			e.Prune(pruned)
			for k, vs := range model {
				j := 0
				for j < len(vs)-1 && vs[j+1].batch <= pruned {
					j++
				}
				model[k] = vs[j:]
			}
		case batch%29 == 0:
			// Round-trip the engine's own state through export/import:
			// history collapses to single versions at the boundary.
			op++
			snap := e.ExportAsOf(batch)
			e.ImportAsOf(batch, snap)
			for k := range model {
				if v, w, ok := modelGetAsOf(k, batch); ok {
					model[k] = []modelVersion{{batch: w, value: []byte(v)}}
				} else {
					delete(model, k)
				}
			}
			pruned = batch
		}
		// Only read at snapshots the prune floor still serves.
		if batch-3 >= pruned {
			op++
			check(batch)
		}
	}
}

// testConcurrentStress replays, against any backend, the exact
// concurrency the replica core produces: one dispatcher (the event
// loop) applying batches in order, pinning snapshot targets, and
// running the incremental per-shard pruner clamped by the oldest pinned
// target — while a pool of readers does the snapshot fan-outs
// concurrently. Pinned targets are always at or above the retention
// floor (the pin-then-prune protocol of Node.pruneStoreStep), so every
// read must resolve: full value, writer batch at or below the snapshot,
// never torn, never pruned out from under the reader. Run it under
// -race; the schedule, not the assertions, is most of the test.
func testConcurrentStress(t *testing.T, e store.Engine) {
	const (
		keys    = 64
		batches = 250
		readers = 4
		lag     = 8 // desired prune boundary: this far behind the stable batch
	)
	all := make([]string, keys)
	init := make(map[string][]byte, keys)
	for i := range all {
		all[i] = fmt.Sprintf("key-%04d", i)
		init[all[i]] = []byte(fmt.Sprintf("%s@0", all[i]))
	}
	e.Load(init)

	type job struct {
		target int64
		probe  []string
	}
	var (
		pinMu sync.Mutex
		pins  = map[int64]int{}
	)
	unpin := func(target int64) {
		pinMu.Lock()
		if pins[target] > 1 {
			pins[target]--
		} else {
			delete(pins, target)
		}
		pinMu.Unlock()
	}
	minPinned := func() int64 {
		pinMu.Lock()
		defer pinMu.Unlock()
		min := int64(-1)
		for tgt := range pins {
			if min < 0 || tgt < min {
				min = tgt
			}
		}
		return min
	}

	jobs := make(chan job, 64)
	var wg sync.WaitGroup
	var failures atomic.Int64
	var firstFail atomic.Value
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				for i, v := range e.MultiGetAsOf(j.probe, j.target) {
					if !v.Found || v.Writer > j.target ||
						string(v.Value) != fmt.Sprintf("%s@%d", j.probe[i], v.Writer) {
						failures.Add(1)
						firstFail.CompareAndSwap(nil, fmt.Sprintf(
							"MultiGetAsOf(%q, %d)[%d] = {Found:%v Writer:%d Value:%q}",
							j.probe[i], j.target, i, v.Found, v.Writer, v.Value))
						break
					}
				}
				unpin(j.target)
			}
		}()
	}

	// The dispatcher: write, pin + hand out reads, prune — serialized,
	// like the node's event loop. `oldest` plays the log window base's role
	// (monotone; every handed-out target is at or above it), and a prune
	// pass fixes its boundary when it starts, clamped by pinned targets.
	rng := rand.New(rand.NewSource(99))
	var oldest, passBoundary, prunedThrough int64
	cursor := 0
	for b := int64(1); b <= batches; b++ {
		writes := map[string][]byte{}
		for _, k := range all {
			if rng.Intn(4) == 0 {
				writes[k] = []byte(fmt.Sprintf("%s@%d", k, b))
			}
		}
		e.ApplyAll(b, writes)
		if b-lag > oldest {
			oldest = b - lag
		}

		// Pin snapshots at or above the retention floor, then hand the
		// fan-outs to readers.
		for n := rng.Intn(3); n > 0; n-- {
			target := oldest + rng.Int63n(b-oldest+1)
			probe := make([]string, 8)
			for i := range probe {
				probe[i] = all[rng.Intn(len(all))]
			}
			pinMu.Lock()
			pins[target]++
			pinMu.Unlock()
			select {
			case jobs <- job{target: target, probe: probe}:
			default:
				unpin(target) // pool saturated; the node would serve inline
			}
		}

		// Incremental prune step, boundary fixed per pass and clamped by
		// in-flight snapshots at pass start.
		if cursor == 0 {
			keep := oldest
			if m := minPinned(); m >= 0 && m < keep {
				keep = m
			}
			if keep <= prunedThrough {
				continue
			}
			passBoundary = keep
		}
		e.PruneShard(cursor, passBoundary)
		cursor++
		if cursor == e.ShardCount() {
			cursor = 0
			prunedThrough = passBoundary
		}
	}
	close(jobs)
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d snapshot reads returned torn or pruned state; first: %s",
			n, firstFail.Load())
	}
	// Final state sanity after the dust settles.
	for _, k := range all[:8] {
		v, w, ok := e.Get(k)
		if !ok || string(v) != fmt.Sprintf("%s@%d", k, w) {
			t.Fatalf("final Get(%q) = %q@%d %v", k, v, w, ok)
		}
	}
}

func snapshotsEqual(a, b []store.KV) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Writer != b[i].Writer || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}
