package merkle

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// randomLineage grows one lineage from a Build of base keys: a main branch
// of mainLen versions, then a second branch of sideLen versions off the
// main branch's tenth. Each version is an overwrite of existing keys, an
// insert of new ones, a mix, an Insert, or an empty apply (which returns
// its parent: that *Tree appears twice). It returns every version in
// creation order, and the keys ever written.
func randomLineage(rng *rand.Rand, base, mainLen, sideLen int) ([]*Tree, [][]byte) {
	var keys [][]byte
	fresh := func() []byte {
		k := []byte(fmt.Sprintf("lineage-%d", len(keys)))
		keys = append(keys, k)
		return k
	}
	ups := make([]Update, base)
	for i := range ups {
		k := fresh()
		ups[i] = Update{KeyHash: HashKey(k), ValHash: HashValue(k)}
	}
	versions := []*Tree{Build(ups)}
	step := func(parent *Tree, i int) *Tree {
		val := HashValue([]byte(fmt.Sprintf("v-%d-%d", i, rng.Int())))
		switch rng.Intn(5) {
		case 0:
			return parent.ApplyBulk(nil)
		case 1:
			return parent.Insert(fresh(), val)
		}
		var batch []Update
		for j, n := 0, 1+rng.Intn(6); j < n; j++ {
			k := keys[rng.Intn(len(keys))]
			if rng.Intn(3) == 0 {
				k = fresh()
			}
			batch = append(batch, Update{KeyHash: HashKey(k), ValHash: val})
		}
		return parent.ApplyBulk(batch)
	}
	for i := 1; i < mainLen; i++ {
		versions = append(versions, step(versions[len(versions)-1], i))
	}
	side := versions[10]
	for i := 0; i < sideLen; i++ {
		side = step(side, mainLen+i)
		versions = append(versions, side)
	}
	return versions, keys
}

// randomQuery draws n keys, about one in five never written.
func randomQuery(rng *rand.Rand, keys [][]byte, n int) [][]byte {
	q := make([][]byte, n)
	for i := range q {
		if rng.Intn(5) == 0 {
			q[i] = []byte(fmt.Sprintf("never-%d", rng.Int()))
		} else {
			q[i] = keys[rng.Intn(len(keys))]
		}
	}
	return q
}

// TestCompactPreservesVersions: compacting a random subset of a lineage's
// versions — two branches off one base, overwrites, inserts, empty applies
// — keeps every version's root, length, walk order and multi-proofs, maps
// each distinct input *Tree to one result, and leaves versions that later
// writes treat exactly like the originals. Compacting again changes
// nothing either.
func TestCompactPreservesVersions(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		versions, keys := randomLineage(rng, 1+rng.Intn(300), 35, 20)
		var kept []*Tree
		for _, v := range versions {
			if rng.Intn(3) > 0 {
				kept = append(kept, v)
			}
		}
		kept = append(kept, New(), kept[0])
		out := Compact(kept)
		again := Compact(out)
		if out[0].SharesArena(kept[0]) || again[0].SharesArena(out[0]) {
			t.Fatalf("trial %d: Compact wrote into an arena it was given", trial)
		}
		for i, orig := range kept {
			for _, c := range [][]*Tree{out, again} {
				if c[i].Root() != orig.Root() || c[i].Len() != orig.Len() {
					t.Fatalf("trial %d, version %d: root or length changed by compaction", trial, i)
				}
				if !slices.Equal(c[i].ExportLeaves(), orig.ExportLeaves()) {
					t.Fatalf("trial %d, version %d: walk order changed by compaction", trial, i)
				}
				if orig.Len() > 0 && !c[i].SharesArena(c[0]) {
					t.Fatalf("trial %d, version %d: compacted versions span several arenas", trial, i)
				}
			}
			for j, u := range kept[:i] {
				if (u == orig) != (out[j] == out[i]) {
					t.Fatalf("trial %d: inputs %d and %d identical %v, results identical %v", trial, j, i, u == orig, out[j] == out[i])
				}
			}
			q := randomQuery(rng, keys, 1+rng.Intn(12))
			want, errWant := orig.ProveMulti(q)
			got, errGot := out[i].ProveMulti(q)
			if errWant != errGot || !slices.Equal(got.Nodes, want.Nodes) {
				t.Fatalf("trial %d, version %d: multi-proof changed by compaction", trial, i)
			}
			var more []Update
			for j, n := 0, 1+rng.Intn(5); j < n; j++ {
				k := randomQuery(rng, keys, 1)[0]
				more = append(more, Update{KeyHash: HashKey(k), ValHash: HashValue([]byte{byte(j)})})
			}
			next, nextOrig := out[i].ApplyBulk(slices.Clone(more)), orig.ApplyBulk(more)
			if next.Root() != nextOrig.Root() || next.Len() != nextOrig.Len() {
				t.Fatalf("trial %d, version %d: a write to the compacted version diverges", trial, i)
			}
		}
	}
}

// distinctNodes counts the nodes versions of one lineage reach by walking
// each version whole: the oracle for Reachable and Compact.
func distinctNodes(versions []*Tree) int {
	seen := make(map[ref]bool)
	var walk func(v *nodes, r ref)
	walk = func(v *nodes, r ref) {
		seen[r] = true
		if !r.isLeaf() {
			walk(v, v.in(r).left)
			walk(v, v.in(r).right)
		}
	}
	for _, t := range versions {
		if t.size > 0 {
			walk(t.nodes, t.root)
		}
	}
	return len(seen)
}

// TestCompactArenaHoldsOnlyReachable: right after Compact, the new arena
// holds exactly the distinct nodes its versions reach, and that count is
// its base; the lineage it was compacted from held more.
func TestCompactArenaHoldsOnlyReachable(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 10; trial++ {
		versions, _ := randomLineage(rng, 50+rng.Intn(500), 60, 15)
		kept := versions[len(versions)-8:]
		want := distinctNodes(kept)
		if got := Reachable(kept); got != want {
			t.Fatalf("trial %d: Reachable = %d, walk counts %d", trial, got, want)
		}
		before, _ := kept[0].Arena()
		out := Compact(kept)
		nodes, base := out[0].Arena()
		if nodes != want || base != want {
			t.Fatalf("trial %d: compacted arena holds %d nodes (base %d), want the %d reachable", trial, nodes, base, want)
		}
		if before <= want {
			t.Fatalf("trial %d: the source arena held %d nodes, no garbage beside %d reachable: the fixture proves nothing", trial, before, want)
		}
		if got := distinctNodes(out); got != want {
			t.Fatalf("trial %d: compacted versions reach %d nodes, want %d", trial, got, want)
		}
	}
}

// TestConcurrentReadersDuringCompaction: one writer applies batches —
// growing chunks, and every eighth batch compacting its retained window
// into a fresh arena — while four readers prove and verify multi-key reads
// against versions published to them earlier, old arenas included. Run
// under -race it checks the single-writer contract: readers never touch
// memory the writer writes after publishing.
func TestConcurrentReadersDuringCompaction(t *testing.T) {
	const hot, batches, window, readers = 32, 300, 16, 4
	type published struct {
		tree *Tree
		root Digest
		vals map[string][]byte
	}
	keys := make([][]byte, hot)
	vals := make(map[string][]byte, hot)
	var ups []Update
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("hot-%d", i))
		vals[string(keys[i])] = []byte("v0")
		ups = append(ups, Update{KeyHash: HashKey(keys[i]), ValHash: HashValue([]byte("v0"))})
	}
	tree := Build(ups)
	var latest atomic.Pointer[published]
	latest.Store(&published{tree: tree, root: tree.Root(), vals: vals})

	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var seen []*published
			for !done.Load() || len(seen) < 100 {
				seen = append(seen, latest.Load())
				p := seen[rng.Intn(len(seen))]
				query := [][]byte{[]byte("absent")}
				for i := 0; i < 6; i++ {
					query = append(query, keys[rng.Intn(hot)])
				}
				answers := make([]KeyAnswer, len(query))
				for i, k := range query {
					v, ok := p.vals[string(k)]
					answers[i] = KeyAnswer{Key: k, Value: v, Found: ok}
				}
				mp, err := p.tree.ProveMulti(query)
				if err == nil {
					err = VerifyMulti(p.root, answers, mp)
				}
				if err == nil && p.tree.Root() != p.root {
					err = fmt.Errorf("root of a published version changed")
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(int64(r))
	}

	rng := rand.New(rand.NewSource(31))
	retained := []*published{latest.Load()}
	for b := 1; b <= batches; b++ {
		cur := retained[len(retained)-1]
		next := make(map[string][]byte, hot)
		for k, v := range cur.vals {
			next[k] = v
		}
		var batch []Update
		for i := 0; i < 3; i++ {
			k, v := keys[rng.Intn(hot)], []byte(fmt.Sprintf("v%d-%d", b, i))
			next[string(k)] = v
			batch = append(batch, Update{KeyHash: HashKey(k), ValHash: HashValue(v)})
		}
		// Keys no reader asks for, so the tree and its chunks keep growing.
		fresh := []byte(fmt.Sprintf("fresh-%d", b))
		batch = append(batch, Update{KeyHash: HashKey(fresh), ValHash: HashValue(fresh)})
		tr := cur.tree.ApplyBulk(batch)
		retained = append(retained, &published{tree: tr, root: tr.Root(), vals: next})
		if len(retained) > window {
			retained = retained[1:]
		}
		if b%8 == 0 {
			trees := make([]*Tree, len(retained))
			for i, p := range retained {
				trees[i] = p.tree
			}
			for i, c := range Compact(trees) {
				retained[i] = &published{tree: c, root: retained[i].root, vals: retained[i].vals}
			}
		}
		latest.Store(retained[len(retained)-1])
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
