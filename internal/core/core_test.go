package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"transedge/internal/client"
	"transedge/internal/core"
)

// testSystem builds and starts a deployment with numbered keys
// ("key-000".."key-NNN") preloaded with "init-<i>" values. When the test
// ends it stops the deployment and checks every replica's retained log
// with VerifyLog: whatever the test staged, each replica holds a
// certified, hash-chained history.
func testSystem(t testing.TB, clusters, f, keys int, opts ...func(*core.SystemConfig)) *core.System {
	t.Helper()
	data := make(map[string][]byte, keys)
	for i := 0; i < keys; i++ {
		data[fmt.Sprintf("key-%03d", i)] = []byte(fmt.Sprintf("init-%d", i))
	}
	cfg := core.SystemConfig{
		Clusters:    clusters,
		F:           f,
		Seed:        42,
		InitialData: data,
	}
	for _, o := range opts {
		o(&cfg)
	}
	sys := core.NewSystem(cfg)
	sys.Start()
	t.Cleanup(func() {
		sys.Stop()
		for c := range int32(sys.Cfg.Clusters) {
			for r := range int32(sys.ReplicasPerCluster()) {
				id := core.NodeID{Cluster: c, Replica: r}
				if err := core.VerifyLog(sys.Ring, sys.Cfg.Clusters, sys.Node(id).LogRecords()); err != nil {
					t.Errorf("replica %v log: %v", id, err)
				}
			}
		}
	})
	return sys
}

func testClient(sys *core.System, id uint32) *client.Client {
	return client.New(client.Config{
		ID:       id,
		Net:      sys.Net,
		Ring:     sys.Ring,
		Part:     sys.Part,
		Clusters: sys.Cfg.Clusters,
		Timeout:  10 * time.Second,
	})
}

// keysOn returns n distinct preloaded keys owned by the given cluster.
func keysOn(sys *core.System, cluster int32, n int) []string {
	var out []string
	for i := 0; len(out) < n && i < 10000; i++ {
		k := fmt.Sprintf("key-%03d", i%1000)
		if i >= 1000 {
			k = fmt.Sprintf("extra-%04d", i)
		}
		if sys.Part.Of(k) == cluster {
			dup := false
			for _, e := range out {
				if e == k {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, k)
			}
		}
	}
	return out
}

func TestLocalTransactionCommit(t *testing.T) {
	sys := testSystem(t, 2, 1, 100)
	c := testClient(sys, 1)
	key := keysOn(sys, 0, 1)[0]

	txn := c.Begin()
	if _, err := txn.Read(key); err != nil {
		t.Fatal(err)
	}
	txn.Write(key, []byte("updated"))
	if err := txn.Commit(); err != nil {
		t.Fatalf("local commit failed: %v", err)
	}

	// A following transaction must see the new value.
	txn2 := c.Begin()
	v, err := txn2.Read(key)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "updated" {
		t.Fatalf("read %q after commit, want %q", v, "updated")
	}
}

func TestWriteOnlyTransaction(t *testing.T) {
	sys := testSystem(t, 2, 1, 100)
	c := testClient(sys, 1)
	key := keysOn(sys, 0, 1)[0]

	txn := c.Begin()
	txn.Write(key, []byte("blind"))
	if err := txn.Commit(); err != nil {
		t.Fatalf("write-only commit failed: %v", err)
	}
	check := c.Begin()
	v, _ := check.Read(key)
	if string(v) != "blind" {
		t.Fatalf("got %q", v)
	}
}

func TestDistributedTransactionCommit(t *testing.T) {
	sys := testSystem(t, 3, 1, 200)
	c := testClient(sys, 1)
	k0 := keysOn(sys, 0, 1)[0]
	k1 := keysOn(sys, 1, 1)[0]
	k2 := keysOn(sys, 2, 1)[0]

	txn := c.Begin()
	for _, k := range []string{k0, k1, k2} {
		if _, err := txn.Read(k); err != nil {
			t.Fatal(err)
		}
		txn.Write(k, []byte("dist-"+k))
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("distributed commit failed: %v", err)
	}

	// The coordinator acknowledges when its own commit batch is written;
	// participants apply the group asynchronously moments later (Fig. 3
	// steps 7–8), so poll.
	for _, k := range []string{k0, k1, k2} {
		deadline := time.Now().Add(5 * time.Second)
		for {
			v, err := c.Begin().Read(k)
			if err != nil {
				t.Fatal(err)
			}
			if string(v) == "dist-"+k {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("key %q = %q, want %q", k, v, "dist-"+k)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func TestConflictAborts(t *testing.T) {
	sys := testSystem(t, 2, 1, 100)
	c := testClient(sys, 1)
	key := keysOn(sys, 0, 1)[0]

	// Two transactions read the same version; the second to commit must
	// abort (rule 1 or rule 2 of Def. 3.1 depending on timing).
	t1, t2 := c.Begin(), c.Begin()
	if _, err := t1.Read(key); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Read(key); err != nil {
		t.Fatal(err)
	}
	t1.Write(key, []byte("one"))
	t2.Write(key, []byte("two"))
	err1 := t1.Commit()
	err2 := t2.Commit()
	if (err1 == nil) == (err2 == nil) {
		t.Fatalf("exactly one should commit: err1=%v err2=%v", err1, err2)
	}
	bad := err1
	if bad == nil {
		bad = err2
	}
	if !errors.Is(bad, client.ErrAborted) {
		t.Fatalf("loser error = %v, want ErrAborted", bad)
	}
}

func TestLocalReadOnlyTransaction(t *testing.T) {
	sys := testSystem(t, 2, 1, 100)
	c := testClient(sys, 1)
	ks := keysOn(sys, 0, 3)

	res, err := c.ReadOnly(ks)
	if err != nil {
		t.Fatalf("read-only failed: %v", err)
	}
	if res.Rounds != 1 {
		t.Fatalf("local RO took %d rounds", res.Rounds)
	}
	for _, k := range ks {
		if res.Values[k] == nil {
			t.Fatalf("missing value for %q", k)
		}
	}
}

func TestDistributedReadOnlySeesCommittedWrites(t *testing.T) {
	sys := testSystem(t, 3, 1, 200)
	c := testClient(sys, 1)
	k0 := keysOn(sys, 0, 1)[0]
	k1 := keysOn(sys, 1, 1)[0]

	txn := c.Begin()
	if _, err := txn.Read(k0); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Read(k1); err != nil {
		t.Fatal(err)
	}
	txn.Write(k0, []byte("A"))
	txn.Write(k1, []byte("B"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	// Poll until both partitions' read-only state reflects the commit
	// (participant commit batches land asynchronously).
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := c.ReadOnly([]string{k0, k1})
		if err != nil {
			t.Fatalf("read-only failed: %v", err)
		}
		a, b := string(res.Values[k0]), string(res.Values[k1])
		if a == "A" && b == "B" {
			return
		}
		// Snapshot consistency: either both updates or neither.
		if (a == "A") != (b == "B") {
			t.Fatalf("inconsistent snapshot: %q/%q (rounds=%d)", a, b, res.Rounds)
		}
		if time.Now().After(deadline) {
			t.Fatalf("commit never became visible: %q/%q", a, b)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// newRand returns a deterministic PRNG for test goroutines.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
