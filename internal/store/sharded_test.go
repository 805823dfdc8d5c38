package store

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestShardCountRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, DefaultShards}, {-3, DefaultShards},
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
	}
	for _, c := range cases {
		if got := NewSharded(c.in).ShardCount(); got != c.want {
			t.Fatalf("NewSharded(%d).ShardCount() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestStableBatchWatermark(t *testing.T) {
	s := New()
	if got := s.StableBatch(); got != -1 {
		t.Fatalf("fresh store StableBatch = %d, want -1", got)
	}
	s.Load(map[string][]byte{"a": []byte("1")})
	if got := s.StableBatch(); got != GenesisBatch {
		t.Fatalf("after Load StableBatch = %d, want %d", got, GenesisBatch)
	}
	s.ApplyAll(3, map[string][]byte{"a": []byte("2")})
	if got := s.StableBatch(); got != 3 {
		t.Fatalf("after ApplyAll(3) StableBatch = %d, want 3", got)
	}
	// Write-free batches advance the watermark too: delivery of a batch
	// with no local writes must still make snapshot reads at its ID
	// recognizably stable.
	s.ApplyAll(4, nil)
	if got := s.StableBatch(); got != 4 {
		t.Fatalf("after empty ApplyAll(4) StableBatch = %d, want 4", got)
	}
}

func TestMultiGetAsOfMatchesGetAsOf(t *testing.T) {
	s := NewSharded(8)
	rng := rand.New(rand.NewSource(5))
	var keys []string
	for i := 0; i < 40; i++ {
		keys = append(keys, fmt.Sprintf("key-%03d", i))
	}
	for b := int64(1); b <= 30; b++ {
		writes := map[string][]byte{}
		for _, k := range keys {
			if rng.Intn(3) == 0 {
				writes[k] = []byte(fmt.Sprintf("%s@%d", k, b))
			}
		}
		s.ApplyAll(b, writes)
	}
	probe := append([]string{"never-written", keys[7]}, keys[20:30]...)
	for _, asOf := range []int64{0, 7, 15, 30, 99} {
		got := s.MultiGetAsOf(probe, asOf)
		if len(got) != len(probe) {
			t.Fatalf("MultiGetAsOf returned %d results for %d keys", len(got), len(probe))
		}
		for i, k := range probe {
			v, w, ok := s.GetAsOf(k, asOf)
			if got[i].Found != ok || got[i].Writer != w || string(got[i].Value) != string(v) {
				t.Fatalf("MultiGetAsOf(%q, %d) = %+v, GetAsOf = %q@%d %v",
					k, asOf, got[i], v, w, ok)
			}
		}
	}
}

func TestLastWritersMatchesLastWriter(t *testing.T) {
	s := NewSharded(4)
	s.Load(map[string][]byte{"a": []byte("1"), "b": []byte("2")})
	s.ApplyAll(5, map[string][]byte{"b": []byte("3"), "c": []byte("4")})
	probe := []string{"a", "b", "c", "missing"}
	got := s.LastWriters(probe)
	for i, k := range probe {
		if want := s.LastWriter(k); got[i] != want {
			t.Fatalf("LastWriters[%q] = %d, want %d", k, got[i], want)
		}
	}
}

// modelStore replicates the seed's single-map store: one version slice
// per key, no shards, no locks. The equivalence property below drives it
// and the sharded engine with identical random operation sequences and
// demands identical answers.
type modelStore struct {
	data map[string][]version
}

func newModel() *modelStore { return &modelStore{data: make(map[string][]version)} }

func (m *modelStore) apply(batch int64, writes map[string][]byte) {
	for k, v := range writes {
		vs := m.data[k]
		if n := len(vs); n > 0 && vs[n-1].batch == batch {
			vs[n-1].value = v
		} else {
			vs = append(vs, version{batch: batch, value: v})
		}
		m.data[k] = vs
	}
}

func (m *modelStore) getAsOf(key string, asOf int64) ([]byte, int64, bool) {
	vs := m.data[key]
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].batch <= asOf {
			return vs[i].value, vs[i].batch, true
		}
	}
	return nil, 0, false
}

func (m *modelStore) lastWriter(key string) int64 {
	vs := m.data[key]
	if len(vs) == 0 {
		return -1
	}
	return vs[len(vs)-1].batch
}

func (m *modelStore) prune(keepFrom int64) {
	for k, vs := range m.data {
		i := 0
		for i < len(vs) && vs[i].batch <= keepFrom {
			i++
		}
		if i > 1 {
			m.data[k] = append(vs[:0:0], vs[i-1:]...)
		}
	}
}

// TestShardedEquivalenceProperty runs random batched writes, prunes, and
// probes against both the sharded store and the single-map model: every
// read class (GetAsOf, MultiGetAsOf, Get, LastWriter, LastWriters,
// VersionCount) must agree at every step.
func TestShardedEquivalenceProperty(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(shards) * 977))
			s := NewSharded(shards)
			m := newModel()
			keys := make([]string, 24)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%02d", i)
			}
			pruned := int64(0)
			for batch := int64(1); batch <= 250; batch++ {
				writes := map[string][]byte{}
				for _, k := range keys {
					if rng.Intn(3) == 0 {
						writes[k] = []byte(fmt.Sprintf("%s-%d", k, batch))
					}
				}
				s.ApplyAll(batch, writes)
				m.apply(batch, writes)

				if rng.Intn(20) == 0 {
					// Prune to a random boundary at or above the last one
					// (never above the stable batch, like the node's
					// retention hook).
					pruned += rng.Int63n(batch - pruned + 1)
					s.Prune(pruned)
					m.prune(pruned)
				}

				// Probe at boundaries the node actually reads: at or above
				// the prune point.
				asOf := pruned + rng.Int63n(batch-pruned+1)
				probe := make([]string, 0, 6)
				for i := 0; i < 5; i++ {
					probe = append(probe, keys[rng.Intn(len(keys))])
				}
				probe = append(probe, "absent-key")
				multi := s.MultiGetAsOf(probe, asOf)
				writers := s.LastWriters(probe)
				for i, k := range probe {
					wv, ww, wok := m.getAsOf(k, asOf)
					if multi[i].Found != wok || multi[i].Writer != ww || string(multi[i].Value) != string(wv) {
						t.Fatalf("batch %d: MultiGetAsOf(%q, %d) = %+v, model %q@%d %v",
							batch, k, asOf, multi[i], wv, ww, wok)
					}
					gv, gw, gok := s.GetAsOf(k, asOf)
					if gok != wok || gw != ww || string(gv) != string(wv) {
						t.Fatalf("batch %d: GetAsOf(%q, %d) = %q@%d %v, model %q@%d %v",
							batch, k, asOf, gv, gw, gok, wv, ww, wok)
					}
					if writers[i] != m.lastWriter(k) {
						t.Fatalf("batch %d: LastWriters[%q] = %d, model %d",
							batch, k, writers[i], m.lastWriter(k))
					}
					if s.VersionCount(k) != len(m.data[k]) {
						t.Fatalf("batch %d: VersionCount(%q) = %d, model %d",
							batch, k, s.VersionCount(k), len(m.data[k]))
					}
				}
			}
			if s.Keys() != len(m.data) {
				t.Fatalf("Keys() = %d, model %d", s.Keys(), len(m.data))
			}
		})
	}
}

// TestConcurrentApplyMultiGetPruneStress exercises the exact concurrency
// the node produces under the race detector: one dispatcher (the event
// loop) applying batches in order, pinning snapshot targets, and running
// the incremental per-shard pruner clamped by the oldest pinned target —
// while a pool of readers does the snapshot fan-outs concurrently.
// Readers assert full snapshot semantics: every key resolves, the writer
// batch never exceeds the snapshot, and the value is the one that writer
// produced. (Pinning MUST be serialized with prune-boundary computation —
// the node does both on its event loop; a free-running reader picking its
// own snapshot could be overtaken by the pruner. This test mirrors that
// protocol.)
func TestConcurrentApplyMultiGetPruneStress(t *testing.T) {
	const (
		keys    = 64
		batches = 400
		readers = 4
		lag     = 8 // desired prune boundary: this far behind the stable batch
	)
	s := NewSharded(8)
	all := make([]string, keys)
	init := make(map[string][]byte, keys)
	for i := range all {
		all[i] = fmt.Sprintf("key-%04d", i)
		init[all[i]] = []byte(fmt.Sprintf("%s@0", all[i]))
	}
	s.Load(init)

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
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				for i, v := range s.MultiGetAsOf(j.probe, j.target) {
					if !v.Found || v.Writer > j.target ||
						string(v.Value) != fmt.Sprintf("%s@%d", j.probe[i], v.Writer) {
						failures.Add(1)
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
	// pass fixes its boundary when it starts, clamped by pinned targets —
	// exactly Node.pruneStoreStep's protocol.
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
		s.ApplyAll(b, writes)
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
		s.PruneShard(cursor, passBoundary)
		cursor++
		if cursor == s.ShardCount() {
			cursor = 0
			prunedThrough = passBoundary
		}
	}
	close(jobs)
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d snapshot reads returned torn or pruned state", n)
	}
	// Final state sanity after the dust settles.
	for _, k := range all[:8] {
		v, w, ok := s.Get(k)
		if !ok || string(v) != fmt.Sprintf("%s@%d", k, w) {
			t.Fatalf("final Get(%q) = %q@%d %v", k, v, w, ok)
		}
	}
}
