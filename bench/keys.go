package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"transedge/internal/protocol"
)

// The correctness oracle rests on one convention: every value is an account
// balance (a zero-padded decimal prefix, filled to valueSize bytes), every
// read-write transaction is a transfer that reads the keys it writes and
// writes back the same total, so the keyspace sum never changes and, in
// pair workloads, neither does any pair's sum.

const balanceDigits = 16

func encodeBalance(b int64) []byte {
	v := make([]byte, valueSize)
	s := fmt.Sprintf("%0*d", balanceDigits, b)
	copy(v, s)
	for i := len(s); i < valueSize; i++ {
		v[i] = '.'
	}
	return v
}

func decodeBalance(v []byte) (int64, error) {
	if len(v) < balanceDigits {
		return 0, fmt.Errorf("value of %d bytes holds no balance", len(v))
	}
	return strconv.ParseInt(string(v[:balanceDigits]), 10, 64)
}

func keyName(i int) string { return fmt.Sprintf("acct%08d", i) }

// layout is the keyspace as the generators see it: keys per owning
// cluster and, for pair workloads, the fixed pairs.
type layout struct {
	clusters  int
	keys      []string   // every key
	byCluster [][]string // keys owned by each cluster, in index order
	// localPairs[c] are pairs with both keys on cluster c; crossPairs[c]
	// pair a key of cluster c with one of cluster (c+1) mod clusters.
	localPairs [][][2]string
	crossPairs [][][2]string
}

func newLayout(keys, clusters int, pairs bool) *layout {
	part := protocol.Partitioner{N: int32(clusters)}
	l := &layout{clusters: clusters, byCluster: make([][]string, clusters)}
	for i := 0; i < keys; i++ {
		k := keyName(i)
		l.keys = append(l.keys, k)
		c := part.Of(k)
		l.byCluster[c] = append(l.byCluster[c], k)
	}
	if !pairs {
		return l
	}
	shortest := len(l.byCluster[0])
	for _, ks := range l.byCluster {
		if len(ks) < shortest {
			shortest = len(ks)
		}
	}
	// Each cluster's keys split into quarters: [0,q) anchors cross pairs
	// whose partner is [q,2q) of the next cluster; the rest pair up
	// locally, neighbour with neighbour.
	q := shortest / 4
	l.localPairs = make([][][2]string, clusters)
	l.crossPairs = make([][][2]string, clusters)
	for c, ks := range l.byCluster {
		next := l.byCluster[(c+1)%clusters]
		for i := 0; i < q; i++ {
			l.crossPairs[c] = append(l.crossPairs[c], [2]string{ks[i], next[q+i]})
		}
		for i := 2 * q; i+1 < len(ks); i += 2 {
			l.localPairs[c] = append(l.localPairs[c], [2]string{ks[i], ks[i+1]})
		}
	}
	return l
}

func (l *layout) initialData() map[string][]byte {
	v := encodeBalance(initialBalance)
	data := make(map[string][]byte, len(l.keys))
	for _, k := range l.keys {
		data[k] = v
	}
	return data
}

// zipf draws ranks in [0,n) with P(rank r) proportional to 1/(r+1)^s. It
// exists because math/rand's Zipf needs s > 1 and the workloads use the
// YCSB exponent 0.99. The CDF table is shared between generators.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// opInput is one generated operation: everything the program receives.
type opInput struct {
	class   Class
	cluster int32    // owning cluster of a local transfer (-1 otherwise)
	reads   []string // keys read (for classRO: the snapshot's key set)
	writes  []string // keys written, a subset of reads
}

// opGen turns a seeded random stream into operations for one spec.
// Not safe for concurrent use: each generator and worker owns one.
type opGen struct {
	spec *Spec
	l    *layout
	rng  *rand.Rand
	// ranks skews choice among n candidates, keyed by n (nil = uniform).
	ranks map[int]*zipf
}

func newOpGen(spec *Spec, l *layout, ranks map[int]*zipf, seed int64) *opGen {
	return &opGen{spec: spec, l: l, rng: rand.New(rand.NewSource(seed)), ranks: ranks}
}

// zipfTables precomputes the rank tables a spec's generators share.
func zipfTables(spec *Spec, l *layout) map[int]*zipf {
	if spec.Zipf <= 0 {
		return nil
	}
	t := make(map[int]*zipf)
	add := func(n int) {
		if n > 0 && t[n] == nil {
			t[n] = newZipf(n, spec.Zipf)
		}
	}
	for c := range l.byCluster {
		add(len(l.byCluster[c]))
		if spec.Pairs {
			add(len(l.localPairs[c]))
			add(len(l.crossPairs[c]))
		}
	}
	return t
}

// pick draws an index in [0,n): by zipf rank when the spec is skewed,
// uniformly otherwise.
func (g *opGen) pick(n int) int {
	if z := g.ranks[n]; z != nil {
		return z.draw(g.rng)
	}
	return g.rng.Intn(n)
}

// distinct draws n distinct keys from pool; a skewed draw that keeps
// landing on taken keys falls back to uniform draws.
func (g *opGen) distinct(pool []string, n int) []string {
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for tries := 0; len(out) < n; tries++ {
		i := g.pick(len(pool))
		if tries > 8*n {
			i = g.rng.Intn(len(pool))
		}
		if !seen[i] {
			seen[i] = true
			out = append(out, pool[i])
		}
	}
	return out
}

func (g *opGen) class(m Mix) Class {
	u := g.rng.Float64()
	for c := Class(0); c < numClasses; c++ {
		if u < m[c] {
			return c
		}
		u -= m[c]
	}
	return numClasses - 1
}

func (g *opGen) next(m Mix) opInput {
	switch cl := g.class(m); cl {
	case classRO:
		return g.nextRO()
	case classLocal:
		return g.nextLocal()
	default:
		return g.nextDist()
	}
}

// nextRO reads ROPerCluster keys from every cluster, or with Pairs one
// whole pair anchored at every cluster (local or cross, evenly).
func (g *opGen) nextRO() opInput {
	op := opInput{class: classRO, cluster: -1}
	for c := 0; c < g.l.clusters; c++ {
		if !g.spec.Pairs {
			op.reads = append(op.reads, g.distinct(g.l.byCluster[c], g.spec.ROPerCluster)...)
			continue
		}
		pairs := g.l.localPairs[c]
		if g.rng.Intn(2) == 0 {
			pairs = g.l.crossPairs[c]
		}
		p := pairs[g.pick(len(pairs))]
		op.reads = append(op.reads, p[0], p[1])
	}
	return op
}

// nextLocal is a transfer inside one cluster: with Pairs it reads and
// writes one local pair; otherwise it reads 5 keys and writes 3 of them
// (the paper's default transaction shape).
func (g *opGen) nextLocal() opInput {
	c := g.rng.Intn(g.l.clusters)
	op := opInput{class: classLocal, cluster: int32(c)}
	if g.spec.Pairs {
		p := g.l.localPairs[c][g.pick(len(g.l.localPairs[c]))]
		op.reads = []string{p[0], p[1]}
		op.writes = op.reads
		return op
	}
	op.reads = g.distinct(g.l.byCluster[c], 5)
	op.writes = op.reads[:3]
	return op
}

// nextDist is a transfer across clusters: with Pairs one cross pair;
// otherwise 5 reads dealt round-robin over the clusters from a random
// start, the first 3 written (so at least two clusters are written).
func (g *opGen) nextDist() opInput {
	op := opInput{class: classDist, cluster: -1}
	c := g.rng.Intn(g.l.clusters)
	if g.spec.Pairs {
		p := g.l.crossPairs[c][g.pick(len(g.l.crossPairs[c]))]
		op.reads = []string{p[0], p[1]}
		op.writes = op.reads
		return op
	}
	for i := 0; i < 5; i++ {
		pool := g.l.byCluster[(c+i)%g.l.clusters]
		for {
			k := pool[g.pick(len(pool))]
			if !slices.Contains(op.reads, k) {
				op.reads = append(op.reads, k)
				break
			}
		}
	}
	op.writes = op.reads[:3]
	return op
}

// transferValues computes a transfer's writes from the balances it read:
// the first written key pays one unit to each of the others. The total is
// unchanged whatever the balances are.
func transferValues(balances []int64) [][]byte {
	out := make([][]byte, len(balances))
	others := int64(len(balances) - 1)
	for i, b := range balances {
		switch {
		case balances[0] < others: // payer is broke: write back unchanged
		case i == 0:
			b -= others
		default:
			b++
		}
		out[i] = encodeBalance(b)
	}
	return out
}

// checkPairs is the per-snapshot oracle of pair workloads: the keys of a
// snapshot read arrive pair by pair, and each pair must still sum to twice
// the initial balance.
func checkPairs(keys []string, values map[string][]byte) error {
	for i := 0; i+1 < len(keys); i += 2 {
		a, err := decodeBalance(values[keys[i]])
		if err != nil {
			return fmt.Errorf("pair key %s: %v", keys[i], err)
		}
		b, err := decodeBalance(values[keys[i+1]])
		if err != nil {
			return fmt.Errorf("pair key %s: %v", keys[i+1], err)
		}
		if a+b != 2*initialBalance {
			return fmt.Errorf("fractured pair %s+%s = %d, want %d", keys[i], keys[i+1], a+b, 2*initialBalance)
		}
	}
	return nil
}
