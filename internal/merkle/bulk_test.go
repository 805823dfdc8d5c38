package merkle

import (
	"fmt"
	"math/rand"
	"testing"
)

// applySequential is the reference implementation: one Insert per update.
func applySequential(t *Tree, updates map[string]Digest) *Tree {
	out := t
	for k, vh := range updates {
		out = out.Insert([]byte(k), vh)
	}
	return out
}

// TestApplyBulkMatchesSequentialProperty: for randomized update sets over
// randomized base trees — including same-key overwrites, keys already in
// the base, and empty update sets — the bulk merge produces bit-identical
// roots and sizes to sequential insertion.
func TestApplyBulkMatchesSequentialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		base := New()
		for i, n := 0, rng.Intn(60); i < n; i++ {
			base = base.Insert(
				[]byte(fmt.Sprintf("key-%d", rng.Intn(80))),
				HashValue([]byte{byte(rng.Intn(256))}),
			)
		}
		updates := make(map[string]Digest)
		for i, n := 0, rng.Intn(50); i < n; i++ {
			// Overlapping key ranges provoke overwrites of both base keys
			// and other updates.
			updates[fmt.Sprintf("key-%d", rng.Intn(120))] = HashValue([]byte{byte(rng.Intn(256))})
		}
		seq := applySequential(base, updates)
		bulk := base.Apply(updates)
		if seq.Root() != bulk.Root() {
			t.Fatalf("trial %d: bulk root differs from sequential (base %d keys, %d updates)",
				trial, base.Len(), len(updates))
		}
		if seq.Len() != bulk.Len() {
			t.Fatalf("trial %d: bulk size %d, sequential %d", trial, bulk.Len(), seq.Len())
		}
		if len(updates) == 0 && bulk != base {
			t.Fatalf("trial %d: empty update set must return the receiver", trial)
		}
		// The base version must be untouched (persistence).
		if got := applySequential(New(), nil); got.Len() != 0 {
			t.Fatal("sanity")
		}
	}
}

// TestApplyBulkDuplicateKeysKeepLast: ApplyBulk on a raw update slice with
// duplicate key hashes keeps the last occurrence, like sequential
// insertion in slice order.
func TestApplyBulkDuplicateKeysKeepLast(t *testing.T) {
	kh := HashKey([]byte("dup"))
	first, last := HashValue([]byte("first")), HashValue([]byte("last"))
	got := New().ApplyBulk([]Update{{kh, first}, {kh, last}})
	want := New().InsertHashed(kh, first).InsertHashed(kh, last)
	if got.Root() != want.Root() {
		t.Fatal("duplicate key did not keep the last value")
	}
	if got.Len() != 1 {
		t.Fatalf("size %d after duplicate-key bulk apply, want 1", got.Len())
	}
}

// TestBulkBuildMatchesInsertOracleWithDuplicates: Build and ApplyBulk over
// raw update slices in arrival order — random sizes, every key written up
// to four times at random positions, and key hashes that agree on their
// first 64 bits, where the ordering falls back to the full hash — produce
// the root and size of the Insert oracle fed the same slice front to back,
// so the last write of a key wins.
func TestBulkBuildMatchesInsertOracleWithDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randomUpdates := func(n, distinct int) []Update {
		ups := make([]Update, n)
		for i := range ups {
			kh := HashKey([]byte(fmt.Sprintf("key-%d", rng.Intn(distinct))))
			if rng.Intn(4) == 0 {
				// Same leading 8 bytes as every other such key, one of four tails.
				kh = Digest{0: 0xAB, 31: byte(rng.Intn(4))}
			}
			ups[i] = Update{KeyHash: kh, ValHash: HashValue([]byte{byte(i), byte(i >> 8)})}
		}
		return ups
	}
	oracle := func(base *Tree, ups []Update) *Tree {
		for _, u := range ups {
			base = base.InsertHashed(u.KeyHash, u.ValHash)
		}
		return base
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(400)
		ups := randomUpdates(n, 1+n/(1+rng.Intn(4)))
		want := oracle(New(), ups)
		got := Build(append([]Update(nil), ups...))
		if got.Root() != want.Root() || got.Len() != want.Len() {
			t.Fatalf("trial %d: Build over %d updates: %d keys, oracle %d, roots equal %v",
				trial, n, got.Len(), want.Len(), got.Root() == want.Root())
		}
		more := randomUpdates(1+rng.Intn(100), n)
		want = oracle(want, more)
		got = got.ApplyBulk(append([]Update(nil), more...))
		if got.Root() != want.Root() || got.Len() != want.Len() {
			t.Fatalf("trial %d: ApplyBulk of %d updates onto %d keys diverges from the oracle", trial, len(more), n)
		}
	}
}

// TestApplyBulkProofsVerify: membership and absence proofs issued by
// bulk-built versions verify against their roots — the bulk merge must
// produce the same canonical structure the proof verifier assumes.
func TestApplyBulkProofsVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := New()
	for i := 0; i < 40; i++ {
		base = base.Insert([]byte(fmt.Sprintf("base-%d", i)), HashValue([]byte("old")))
	}
	updates := make(map[string]Digest)
	values := make(map[string][]byte)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("bulk-%d", rng.Intn(120))
		v := []byte(fmt.Sprintf("v-%d", i))
		updates[k] = HashValue(v)
		values[k] = v
	}
	tree := base.Apply(updates)
	root := tree.Root()
	for k, v := range values {
		proof, vh, err := tree.Prove([]byte(k))
		if err != nil {
			t.Fatalf("prove %q: %v", k, err)
		}
		if vh != HashValue(v) {
			t.Fatalf("value hash mismatch for %q", k)
		}
		if err := VerifyProof(root, []byte(k), v, proof); err != nil {
			t.Fatalf("verify %q: %v", k, err)
		}
	}
	for _, absent := range []string{"never-written", "bulk-99999", "base-40"} {
		ap, err := tree.ProveAbsent([]byte(absent))
		if err != nil {
			t.Fatalf("prove absent %q: %v", absent, err)
		}
		if err := VerifyAbsence(root, []byte(absent), ap); err != nil {
			t.Fatalf("verify absence %q: %v", absent, err)
		}
	}
}

// TestApplyBulkHashesFewerNodes: for a 100-key batch over a populated
// tree, the single-pass merge computes strictly fewer node hashes than
// sequential insertion — the point of the optimization.
func TestApplyBulkHashesFewerNodes(t *testing.T) {
	base := New()
	for i := 0; i < 1000; i++ {
		base = base.Insert([]byte(fmt.Sprintf("base-%d", i)), HashValue([]byte("v")))
	}
	updates := make(map[string]Digest, 100)
	for i := 0; i < 100; i++ {
		updates[fmt.Sprintf("hot-%d", i)] = HashValue([]byte("w"))
	}
	start := HashOps()
	_ = applySequential(base, updates)
	seqOps := HashOps() - start

	start = HashOps()
	_ = base.Apply(updates)
	bulkOps := HashOps() - start

	if bulkOps >= seqOps {
		t.Fatalf("bulk apply hashed %d nodes, sequential %d — expected strictly fewer", bulkOps, seqOps)
	}
	t.Logf("hash ops for 100-key batch: sequential=%d bulk=%d (%.1fx fewer)",
		seqOps, bulkOps, float64(seqOps)/float64(bulkOps))
}
