package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestEmptyStore(t *testing.T) {
	s := New()
	if _, _, ok := s.Get("x"); ok {
		t.Fatal("Get on empty store returned a value")
	}
	if _, _, ok := s.GetAsOf("x", 100); ok {
		t.Fatal("GetAsOf on empty store returned a value")
	}
	if s.LastWriter("x") != -1 {
		t.Fatal("LastWriter on empty store != -1")
	}
	if s.Keys() != 0 {
		t.Fatal("Keys on empty store != 0")
	}
}

func TestLoadAndGet(t *testing.T) {
	s := New()
	s.Load(map[string][]byte{"a": []byte("1"), "b": []byte("2")})
	v, w, ok := s.Get("a")
	if !ok || string(v) != "1" || w != GenesisBatch {
		t.Fatalf("Get(a) = %q %d %v", v, w, ok)
	}
	if s.Keys() != 2 {
		t.Fatalf("Keys = %d, want 2", s.Keys())
	}
}

func TestApplyVersions(t *testing.T) {
	s := New()
	s.Load(map[string][]byte{"k": []byte("v0")})
	s.ApplyAll(3, map[string][]byte{"k": []byte("v3")})
	s.ApplyAll(7, map[string][]byte{"k": []byte("v7")})

	v, w, _ := s.Get("k")
	if string(v) != "v7" || w != 7 {
		t.Fatalf("Get = %q at %d", v, w)
	}
	cases := []struct {
		asOf  int64
		value string
		batch int64
	}{
		{0, "v0", 0}, {1, "v0", 0}, {2, "v0", 0},
		{3, "v3", 3}, {4, "v3", 3}, {6, "v3", 3},
		{7, "v7", 7}, {100, "v7", 7},
	}
	for _, c := range cases {
		v, w, ok := s.GetAsOf("k", c.asOf)
		if !ok || string(v) != c.value || w != c.batch {
			t.Fatalf("GetAsOf(%d) = %q %d %v, want %q %d", c.asOf, v, w, ok, c.value, c.batch)
		}
	}
	if _, _, ok := s.GetAsOf("k", -1); ok {
		t.Fatal("GetAsOf before genesis returned a value")
	}
}

func TestApplySameBatchLastWriteWins(t *testing.T) {
	s := New()
	s.ApplyAll(2, map[string][]byte{"k": []byte("a")})
	s.ApplyAll(2, map[string][]byte{"k": []byte("b")})
	v, w, _ := s.Get("k")
	if string(v) != "b" || w != 2 {
		t.Fatalf("Get = %q at %d, want b at 2", v, w)
	}
	if s.VersionCount("k") != 1 {
		t.Fatalf("VersionCount = %d, want 1 (replaced, not appended)", s.VersionCount("k"))
	}
}

func TestLastWriter(t *testing.T) {
	s := New()
	s.Load(map[string][]byte{"k": []byte("v")})
	if s.LastWriter("k") != GenesisBatch {
		t.Fatal("LastWriter after load wrong")
	}
	s.ApplyAll(5, map[string][]byte{"k": []byte("v5")})
	if s.LastWriter("k") != 5 {
		t.Fatal("LastWriter after apply wrong")
	}
}

func TestPrune(t *testing.T) {
	s := New()
	s.Load(map[string][]byte{"k": []byte("v0")})
	for i := int64(1); i <= 10; i++ {
		s.ApplyAll(i, map[string][]byte{"k": []byte(fmt.Sprintf("v%d", i))})
	}
	s.Prune(5)
	// Snapshots at or after 5 must still be exact.
	for i := int64(5); i <= 10; i++ {
		v, _, ok := s.GetAsOf("k", i)
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("after prune, GetAsOf(%d) = %q %v", i, v, ok)
		}
	}
	if got := s.VersionCount("k"); got != 6 {
		t.Fatalf("VersionCount after prune = %d, want 6", got)
	}
}

// TestPruneBoundary pins the exact prune-boundary semantics: a key whose
// last write happened strictly before keepFrom keeps exactly the version
// visible at keepFrom, snapshot reads at and after keepFrom stay exact,
// and reads strictly below the kept version's batch report not-found.
func TestPruneBoundary(t *testing.T) {
	s := New()
	s.Load(map[string][]byte{"cold": []byte("v0"), "hot": []byte("v0")})
	// cold is written at batches 2 and 4; hot at every batch 1..8.
	for i := int64(1); i <= 8; i++ {
		w := map[string][]byte{"hot": []byte(fmt.Sprintf("h%d", i))}
		if i == 2 || i == 4 {
			w["cold"] = []byte(fmt.Sprintf("c%d", i))
		}
		s.ApplyAll(i, w)
	}
	s.Prune(6)

	// Reads exactly at keepFrom: cold's visible version is c4 (written
	// before the boundary), hot's is h6 (written at the boundary).
	if v, w, ok := s.GetAsOf("cold", 6); !ok || string(v) != "c4" || w != 4 {
		t.Fatalf("GetAsOf(cold, 6) = %q@%d %v, want c4@4", v, w, ok)
	}
	if v, w, ok := s.GetAsOf("hot", 6); !ok || string(v) != "h6" || w != 6 {
		t.Fatalf("GetAsOf(hot, 6) = %q@%d %v, want h6@6", v, w, ok)
	}
	// cold retains exactly one version (c4); its history below is gone.
	if got := s.VersionCount("cold"); got != 1 {
		t.Fatalf("VersionCount(cold) = %d, want 1", got)
	}
	// Snapshots between the kept version and the boundary still resolve
	// (the kept version was visible there too)...
	if v, _, ok := s.GetAsOf("cold", 5); !ok || string(v) != "c4" {
		t.Fatalf("GetAsOf(cold, 5) = %q %v, want c4", v, ok)
	}
	// ...but snapshots before the kept version's batch are unservable.
	if _, _, ok := s.GetAsOf("cold", 3); ok {
		t.Fatal("GetAsOf(cold, 3) served a pruned snapshot")
	}
	// Later snapshots and the latest read are unaffected.
	if v, _, ok := s.GetAsOf("hot", 7); !ok || string(v) != "h7" {
		t.Fatalf("GetAsOf(hot, 7) = %q %v, want h7", v, ok)
	}
	if v, w, ok := s.Get("hot"); !ok || string(v) != "h8" || w != 8 {
		t.Fatalf("Get(hot) = %q@%d %v, want h8@8", v, w, ok)
	}
	// Pruning is idempotent at the same boundary.
	s.Prune(6)
	if v, _, ok := s.GetAsOf("cold", 6); !ok || string(v) != "c4" {
		t.Fatalf("after re-prune, GetAsOf(cold, 6) = %q %v, want c4", v, ok)
	}
}

// TestPruneThenApplySameBatchOverwrite combines the two edge cases: after
// pruning, a same-batch overwrite must replace in place (never append a
// duplicate version) and historical snapshots at the prune boundary must
// be unaffected by the overwrite.
func TestPruneThenApplySameBatchOverwrite(t *testing.T) {
	s := New()
	s.Load(map[string][]byte{"k": []byte("v0")})
	for i := int64(1); i <= 5; i++ {
		s.ApplyAll(i, map[string][]byte{"k": []byte(fmt.Sprintf("v%d", i))})
	}
	s.Prune(3)

	s.ApplyAll(6, map[string][]byte{"k": []byte("first")})
	s.ApplyAll(6, map[string][]byte{"k": []byte("second")})
	if v, w, _ := s.Get("k"); string(v) != "second" || w != 6 {
		t.Fatalf("Get = %q@%d, want second@6", v, w)
	}
	// Versions: v3 (kept boundary version), v4, v5, and one slot for
	// batch 6 — the overwrite must not have appended a second.
	if got := s.VersionCount("k"); got != 4 {
		t.Fatalf("VersionCount = %d, want 4", got)
	}
	if v, _, ok := s.GetAsOf("k", 3); !ok || string(v) != "v3" {
		t.Fatalf("GetAsOf(3) = %q %v, want v3", v, ok)
	}
	if v, _, ok := s.GetAsOf("k", 5); !ok || string(v) != "v5" {
		t.Fatalf("GetAsOf(5) = %q %v, want v5", v, ok)
	}
}

// TestApplySameBatchNewKey: a same-batch overwrite of a key whose first
// ever version is in that batch must also replace in place.
func TestApplySameBatchNewKey(t *testing.T) {
	s := New()
	s.ApplyAll(1, map[string][]byte{"fresh": []byte("a")})
	s.ApplyAll(1, map[string][]byte{"fresh": []byte("b")})
	if got := s.VersionCount("fresh"); got != 1 {
		t.Fatalf("VersionCount = %d, want 1", got)
	}
	if v, w, ok := s.GetAsOf("fresh", 1); !ok || string(v) != "b" || w != 1 {
		t.Fatalf("GetAsOf(1) = %q@%d %v, want b@1", v, w, ok)
	}
	if _, _, ok := s.GetAsOf("fresh", 0); ok {
		t.Fatal("GetAsOf(0) found a value before the key existed")
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	s := New()
	s.Load(map[string][]byte{"k": []byte("v0")})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Get("k")
					s.GetAsOf("k", 3)
					s.LastWriter("k")
				}
			}
		}()
	}
	for b := int64(1); b <= 200; b++ {
		s.ApplyAll(b, map[string][]byte{"k": []byte(fmt.Sprintf("v%d", b))})
	}
	close(stop)
	wg.Wait()
	v, w, _ := s.Get("k")
	if string(v) != "v200" || w != 200 {
		t.Fatalf("final value %q at %d", v, w)
	}
}

// TestAgainstModel compares the store against a naive model of full
// version history under random batched writes.
func TestAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := New()
	type mv struct {
		batch int64
		value string
	}
	model := map[string][]mv{}
	keys := []string{"a", "b", "c", "d"}
	for batch := int64(1); batch <= 300; batch++ {
		writes := map[string][]byte{}
		for _, k := range keys {
			if rng.Intn(2) == 0 {
				v := fmt.Sprintf("%s-%d", k, batch)
				writes[k] = []byte(v)
				model[k] = append(model[k], mv{batch, v})
			}
		}
		s.ApplyAll(batch, writes)

		// Probe a random key at a random historical batch.
		k := keys[rng.Intn(len(keys))]
		asOf := rng.Int63n(batch + 1)
		var want *mv
		for i := range model[k] {
			if model[k][i].batch <= asOf {
				want = &model[k][i]
			}
		}
		v, w, ok := s.GetAsOf(k, asOf)
		if want == nil {
			if ok {
				t.Fatalf("batch %d: GetAsOf(%s,%d) found %q, model has nothing", batch, k, asOf, v)
			}
		} else if !ok || string(v) != want.value || w != want.batch {
			t.Fatalf("batch %d: GetAsOf(%s,%d) = %q@%d %v, want %q@%d",
				batch, k, asOf, v, w, ok, want.value, want.batch)
		}
	}
}

// TestGetAsOfMonotoneProperty: for a fixed key, GetAsOf is monotone in the
// asOf argument (later snapshots never show older versions).
func TestGetAsOfMonotoneProperty(t *testing.T) {
	s := New()
	for b := int64(1); b <= 50; b += 3 {
		s.ApplyAll(b, map[string][]byte{"k": []byte(fmt.Sprintf("v%d", b))})
	}
	f := func(a, b uint8) bool {
		lo, hi := int64(a%60), int64(b%60)
		if lo > hi {
			lo, hi = hi, lo
		}
		_, w1, ok1 := s.GetAsOf("k", lo)
		_, w2, ok2 := s.GetAsOf("k", hi)
		if !ok1 {
			return true // nothing visible yet at lo
		}
		return ok2 && w2 >= w1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
