package client_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"transedge/internal/client"
	"transedge/internal/core"
	"transedge/internal/transport"
)

func startSystem(t *testing.T, clusters int) *core.System {
	t.Helper()
	data := make(map[string][]byte)
	for i := 0; i < 100; i++ {
		data[fmt.Sprintf("key-%03d", i)] = []byte(fmt.Sprintf("init-%d", i))
	}
	sys := core.NewSystem(core.SystemConfig{
		Clusters: clusters, F: 1, Seed: 21,
		BatchInterval: time.Millisecond, InitialData: data,
	})
	sys.Start()
	t.Cleanup(sys.Stop)
	return sys
}

func newClient(sys *core.System, id uint32, timeout time.Duration) *client.Client {
	return client.New(client.Config{
		ID: id, Net: sys.Net, Ring: sys.Ring, Part: sys.Part,
		Clusters: sys.Cfg.Clusters, Timeout: timeout,
	})
}

func TestReadYourOwnWrites(t *testing.T) {
	sys := startSystem(t, 2)
	c := newClient(sys, 1, 5*time.Second)
	txn := c.Begin()
	txn.Write("key-001", []byte("buffered"))
	v, err := txn.Read("key-001")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "buffered" {
		t.Fatalf("read %q, want the buffered write", v)
	}
}

func TestEmptyTransactionCommitsTrivially(t *testing.T) {
	sys := startSystem(t, 2)
	c := newClient(sys, 1, 5*time.Second)
	if err := c.Begin().Commit(); err != nil {
		t.Fatalf("empty commit: %v", err)
	}
}

func TestDoubleCommitRejected(t *testing.T) {
	sys := startSystem(t, 2)
	c := newClient(sys, 1, 5*time.Second)
	txn := c.Begin()
	txn.Write("key-002", []byte("v"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err == nil {
		t.Fatal("second Commit on the same txn succeeded")
	}
}

func TestReadOfAbsentKey(t *testing.T) {
	sys := startSystem(t, 2)
	c := newClient(sys, 1, 5*time.Second)
	txn := c.Begin()
	v, err := txn.Read("never-loaded")
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("absent key returned %q", v)
	}
	// Writing it afterwards must commit (version -1 matches "never
	// written").
	txn.Write("never-loaded", []byte("first"))
	if err := txn.Commit(); err != nil {
		t.Fatalf("create-after-miss commit: %v", err)
	}
}

func TestReadOnlyEmptyKeys(t *testing.T) {
	sys := startSystem(t, 2)
	c := newClient(sys, 1, 5*time.Second)
	res, err := c.ReadOnly(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 0 || res.Rounds != 1 {
		t.Fatalf("empty RO: %+v", res)
	}
}

func TestReadOnlyDuplicateKeys(t *testing.T) {
	sys := startSystem(t, 2)
	c := newClient(sys, 1, 5*time.Second)
	res, err := c.ReadOnly([]string{"key-001", "key-001", "key-002"})
	if err != nil {
		t.Fatalf("duplicate keys: %v", err)
	}
	if res.Values["key-001"] == nil {
		t.Fatal("missing value for duplicated key")
	}
}

func TestTimeoutAgainstDeadCluster(t *testing.T) {
	// A network with no registered nodes: every request times out.
	net := transport.NewNetwork()
	t.Cleanup(net.Stop)
	sys := startSystem(t, 2) // only for ring/part
	c := client.New(client.Config{
		ID: 9, Net: net, Ring: sys.Ring, Part: sys.Part,
		Clusters: 2, Timeout: 50 * time.Millisecond,
	})
	txn := c.Begin()
	if _, err := txn.Read("key-001"); !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("read err = %v, want ErrTimeout", err)
	}
	txn2 := c.Begin()
	txn2.Write("key-001", []byte("v"))
	if err := txn2.Commit(); !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("commit err = %v, want ErrTimeout", err)
	}
	if _, err := c.ReadOnly([]string{"key-001"}); !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("read-only err = %v, want ErrTimeout", err)
	}
}

// TestCommitFreeMessageComplexity verifies the paper's commit-freedom
// property at the transport level: a single-round read-only transaction
// over m partitions sends exactly one request per partition (replies
// travel on per-request channels) — no replication, no quorum, no 2PC
// traffic, and no other replica ever hears about the read.
func TestCommitFreeMessageComplexity(t *testing.T) {
	sys := startSystem(t, 3)
	c := newClient(sys, 1, 5*time.Second)

	// One key per cluster.
	keys := make([]string, 0, 3)
	for cl := int32(0); cl < 3; cl++ {
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("key-%03d", i)
			if sys.Part.Of(k) == cl {
				keys = append(keys, k)
				break
			}
		}
	}

	// Quiesce: wait for any startup traffic to drain.
	time.Sleep(20 * time.Millisecond)
	before := sys.Net.Stats.Sent.Load()
	res, err := c.ReadOnly(keys)
	if err != nil {
		t.Fatal(err)
	}
	after := sys.Net.Stats.Sent.Load()
	if res.Rounds != 1 {
		t.Skipf("round 2 triggered (%d rounds); message count not comparable", res.Rounds)
	}
	sent := after - before
	if want := int64(len(keys)); sent != want {
		t.Fatalf("read-only txn over %d partitions sent %d messages, want %d (commit-freedom)",
			len(keys), sent, want)
	}
}

// TestReadTargetsFollowers: reads for read-write transactions can be
// served by any replica, not just the leader.
func TestReadTargetsFollowers(t *testing.T) {
	sys := startSystem(t, 2)
	c := client.New(client.Config{
		ID: 1, Net: sys.Net, Ring: sys.Ring, Part: sys.Part,
		Clusters: 2, Timeout: 5 * time.Second,
		ReadTarget: func(cl int32) client.NodeID { return client.NodeID{Cluster: cl, Replica: 2} },
	})
	txn := c.Begin()
	v, err := txn.Read("key-001")
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("follower returned no value")
	}
}

// TestROFromFollower: read-only transactions can be answered by a
// follower replica — commit-freedom means any single node suffices.
func TestROFromFollower(t *testing.T) {
	sys := startSystem(t, 2)
	c := client.New(client.Config{
		ID: 1, Net: sys.Net, Ring: sys.Ring, Part: sys.Part,
		Clusters: 2, Timeout: 5 * time.Second,
		ROTarget: func(cl int32) client.NodeID { return client.NodeID{Cluster: cl, Replica: 3} },
	})
	res, err := c.ReadOnly([]string{"key-001", "key-002", "key-003"})
	if err != nil {
		t.Fatalf("follower-served read-only: %v", err)
	}
	for k, v := range res.Values {
		if v == nil {
			t.Fatalf("missing %q", k)
		}
	}
}

func TestTxnIDsMonotonePerClient(t *testing.T) {
	sys := startSystem(t, 2)
	c := newClient(sys, 7, time.Second)
	prev := c.Begin().ID()
	for i := 0; i < 5; i++ {
		next := c.Begin().ID()
		if next <= prev {
			t.Fatalf("txn IDs not increasing: %v then %v", prev, next)
		}
		prev = next
	}
}

// TestConcurrentCommitsOnOneClient: transactions of one Client commit from
// many goroutines at once. The coordinator choice draws from the client's
// one random source, which math/rand does not make safe for concurrent
// use; run under -race.
func TestConcurrentCommitsOnOneClient(t *testing.T) {
	sys := startSystem(t, 2)
	c := newClient(sys, 9, 10*time.Second)
	const commits = 64
	errs := make([]error, commits)
	var wg sync.WaitGroup
	for i := 0; i < commits; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			txn := c.Begin()
			// Two keys, so the coordinator is a choice among partitions
			// whenever they live on different clusters.
			txn.Write(fmt.Sprintf("key-%03d", i), []byte("a"))
			txn.Write(fmt.Sprintf("fresh-%03d", i), []byte("b"))
			errs[i] = txn.Commit()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, client.ErrAborted) {
			t.Errorf("commit %d: %v", i, err)
		}
	}
}
