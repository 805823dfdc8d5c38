package core_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"transedge/internal/client"
	"transedge/internal/core"
)

// The paper's central comparison (Sec. 5, Fig. 4): a verified snapshot
// read against the 2PC/BFT baseline, a system with TransEdge's structure
// but no read-only machinery. The baseline reads the keys as a regular
// transaction with an empty write set, so on this substrate the
// comparison is exact: same batching, same consensus, same network, and
// only the client's read path differs.

// readCommitted reads keys the 2PC/BFT way: every read joins the read
// set, and Commit drives batching, BFT and — when the keys span clusters
// — the full 2PC prepare/commit cycle. Unlike a snapshot read it can
// abort (client.ErrAborted).
func readCommitted(c *client.Client, keys []string) (map[string][]byte, error) {
	txn := c.Begin()
	values := make(map[string][]byte, len(keys))
	for _, k := range keys {
		v, err := txn.Read(k)
		if err != nil {
			return nil, err
		}
		values[k] = v
	}
	if err := txn.Commit(); err != nil {
		return nil, err
	}
	return values, nil
}

// oneKeyPerCluster returns a preloaded key owned by each of the first n
// clusters, so a read of them is a real distributed transaction.
func oneKeyPerCluster(sys *core.System, n int) []string {
	keys := make([]string, n)
	for cl := range keys {
		keys[cl] = keysOn(sys, int32(cl), 1)[0]
	}
	return keys
}

func TestReadOnlyAsRegularTransaction(t *testing.T) {
	sys := testSystem(t, 3, 1, 100)
	keys := oneKeyPerCluster(sys, 3)
	values, err := readCommitted(testClient(sys, 1), keys)
	if err != nil {
		t.Fatalf("read as a transaction on an idle system: %v", err)
	}
	for _, k := range keys {
		if values[k] == nil {
			t.Fatalf("missing value for %q", k)
		}
	}
}

// TestReadOnlyGoesThroughCommitPipeline: unlike snapshot reads, reads
// committed as a transaction consume batch slots — observable as
// distributed commits in the node metrics.
func TestReadOnlyGoesThroughCommitPipeline(t *testing.T) {
	sys := testSystem(t, 3, 1, 100)
	if _, err := readCommitted(testClient(sys, 1), oneKeyPerCluster(sys, 2)); err != nil {
		t.Fatal(err)
	}
	// The coordinator counts the commit while delivering the batch that
	// answers the client; Stop waits for that delivery to finish.
	sys.Stop()
	if got := sys.NodeMetrics(func(m *core.Metrics) int64 { return m.DistCommitted }); got == 0 {
		t.Fatal("committed read did not pass through the 2PC commit pipeline")
	}
}

// TestConflictingReadOnlyAborts: reads committed as a transaction can
// abort under write contention — the non-interference property snapshot
// reads add is absent.
func TestConflictingReadOnlyAborts(t *testing.T) {
	sys := testSystem(t, 3, 1, 100)
	reader, writer := testClient(sys, 1), testClient(sys, 2)
	keys := keysOn(sys, 0, 4)

	aborted := false
	for trial := 0; trial < 50 && !aborted; trial++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			txn := writer.Begin()
			for _, k := range keys {
				txn.Write(k, []byte(fmt.Sprintf("w%d", trial)))
			}
			_ = txn.Commit()
		}()
		_, err := readCommitted(reader, keys)
		switch {
		case errors.Is(err, client.ErrAborted):
			aborted = true
		case err != nil:
			t.Fatal(err)
		}
		<-done
	}
	if !aborted {
		t.Fatal("committed read never aborted under direct write contention")
	}
}

// TestReadOnlySpeedupShape: a snapshot read of one key in each of three
// clusters is at least twice as fast, in median, as the same keys read
// as a committed transaction. The injected client and inter-cluster
// latency makes network legs, not CPU, set both numbers: a snapshot read
// is one round trip per cluster in parallel, a committed read one round
// trip per key plus the 2PC legs. Exact companion: snapshot reads leave
// every replica's log and the distributed-commit count untouched, while
// committed reads raise the count.
func TestReadOnlySpeedupShape(t *testing.T) {
	const trials = 7
	sys := testSystem(t, 3, 1, 100, func(cfg *core.SystemConfig) {
		cfg.InterLatency = 5 * time.Millisecond
	})
	c := testClient(sys, 1)
	keys := oneKeyPerCluster(sys, 3)
	var nodes []*core.Node
	for cl := int32(0); cl < 3; cl++ {
		for r := 0; r < sys.ReplicasPerCluster(); r++ {
			nodes = append(nodes, sys.Node(core.NodeID{Cluster: cl, Replica: int32(r)}))
		}
	}
	tips := func() []int64 {
		out := make([]int64, len(nodes))
		for i, n := range nodes {
			out[i] = n.Tip()
		}
		return out
	}
	distCommitted := func() int64 {
		return sys.NodeMetrics(func(m *core.Metrics) int64 { return m.DistCommitted })
	}
	median := func(ds []time.Duration) time.Duration {
		slices.Sort(ds)
		return ds[len(ds)/2]
	}

	tipsBefore, distBefore := tips(), distCommitted()
	snapshot := make([]time.Duration, trials)
	for i := range snapshot {
		start := time.Now()
		if _, err := c.ReadOnly(keys); err != nil {
			t.Fatalf("snapshot read %d: %v", i, err)
		}
		snapshot[i] = time.Since(start)
	}
	// No replica delivered a batch (the tips prove it), so nothing writes
	// DistCommitted while it is read here.
	if got := tips(); !slices.Equal(got, tipsBefore) {
		t.Fatalf("snapshot reads advanced replica logs: tips %v -> %v", tipsBefore, got)
	}
	if got := distCommitted(); got != distBefore {
		t.Fatalf("snapshot reads changed DistCommitted: %d -> %d", distBefore, got)
	}

	committed := make([]time.Duration, trials)
	for i := range committed {
		start := time.Now()
		if _, err := readCommitted(c, keys); err != nil {
			t.Fatalf("committed read %d: %v", i, err)
		}
		committed[i] = time.Since(start)
	}
	sys.Stop()
	if got := distCommitted(); got <= distBefore {
		t.Fatalf("committed reads left DistCommitted at %d", got)
	}

	s, b := median(snapshot), median(committed)
	t.Logf("median read of 3 clusters: snapshot %v, committed %v (%.1fx)", s, b, float64(b)/float64(s))
	if 2*s > b {
		t.Fatalf("snapshot read %v is not 2x faster than committed read %v", s, b)
	}
}
