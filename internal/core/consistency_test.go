package core_test

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"transedge/internal/client"
	"transedge/internal/core"
)

// The bank test: accounts hold integer balances summing to a constant;
// read-write transactions transfer amounts between accounts on different
// partitions; read-only transactions read *all* accounts and check the
// sum. Any torn (non-serializable) snapshot breaks the invariant, so this
// exercises the paper's central claim — consistent distributed read-only
// transactions under concurrent distributed writes — end to end,
// including the dependency-repair second round.

const (
	bankAccounts = 24
	bankInitial  = 1000
)

func bankKeys() []string {
	keys := make([]string, bankAccounts)
	for i := range keys {
		keys[i] = fmt.Sprintf("acct-%02d", i)
	}
	return keys
}

func bankSystem(t testing.TB, clusters int) *core.System {
	t.Helper()
	data := make(map[string][]byte, bankAccounts)
	for _, k := range bankKeys() {
		data[k] = []byte(strconv.Itoa(bankInitial))
	}
	cfg := core.SystemConfig{
		Clusters:      clusters,
		F:             1,
		Seed:          7,
		BatchInterval: time.Millisecond,
		InitialData:   data,
	}
	sys := core.NewSystem(cfg)
	sys.Start()
	t.Cleanup(sys.Stop)
	return sys
}

func TestSnapshotConsistencyUnderConcurrentTransfers(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	sys := bankSystem(t, 3)
	keys := bankKeys()

	var (
		stop         atomic.Bool
		wg           sync.WaitGroup
		commits      atomic.Int64
		aborts       atomic.Int64
		roChecks     atomic.Int64
		secondRounds atomic.Int64
	)

	// Writers: random cross-partition transfers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := testClient(sys, uint32(10+w))
			rng := newRand(int64(w))
			for !stop.Load() {
				a := keys[rng.Intn(len(keys))]
				b := keys[rng.Intn(len(keys))]
				if a == b {
					continue
				}
				txn := c.Begin()
				av, err := txn.Read(a)
				if err != nil {
					continue
				}
				bv, err := txn.Read(b)
				if err != nil {
					continue
				}
				ai, _ := strconv.Atoi(string(av))
				bi, _ := strconv.Atoi(string(bv))
				amount := 1 + rng.Intn(10)
				txn.Write(a, []byte(strconv.Itoa(ai-amount)))
				txn.Write(b, []byte(strconv.Itoa(bi+amount)))
				if err := txn.Commit(); err != nil {
					if errors.Is(err, client.ErrAborted) {
						aborts.Add(1)
						continue
					}
					if !stop.Load() {
						t.Errorf("writer %d: %v", w, err)
					}
					return
				}
				commits.Add(1)
			}
		}(w)
	}

	// Readers: full-ledger snapshot reads; the sum must never waver.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := testClient(sys, uint32(100+r))
			for !stop.Load() {
				res, err := c.ReadOnly(keys)
				if err != nil {
					if !stop.Load() {
						t.Errorf("reader %d: %v", r, err)
					}
					return
				}
				sum := 0
				for _, k := range keys {
					v, _ := strconv.Atoi(string(res.Values[k]))
					sum += v
				}
				if sum != bankAccounts*bankInitial {
					t.Errorf("reader %d: snapshot sum %d, want %d (rounds=%d, batches=%v)",
						r, sum, bankAccounts*bankInitial, res.Rounds, res.Batches)
					stop.Store(true)
					return
				}
				roChecks.Add(1)
				if res.Rounds == 2 {
					secondRounds.Add(1)
				}
			}
		}(r)
	}

	time.Sleep(3 * time.Second)
	stop.Store(true)
	wg.Wait()

	if commits.Load() < 20 {
		t.Fatalf("only %d transfers committed; system unhealthy", commits.Load())
	}
	if roChecks.Load() < 20 {
		t.Fatalf("only %d snapshot checks ran", roChecks.Load())
	}
	t.Logf("transfers: %d committed, %d aborted; snapshots: %d verified, %d needed round 2",
		commits.Load(), aborts.Load(), roChecks.Load(), secondRounds.Load())
}

// TestReadOnlyNeverInterferesWithWriters verifies non-interference
// directly (Table 1): with continuous full-ledger read-only load, writer
// aborts can come only from genuine transaction conflicts, never from
// readers. Each writer transfers between accounts of a single cluster it
// owns exclusively (local transactions, so no 2PC visibility lag and no
// write-write conflicts are possible): zero aborts expected.
func TestReadOnlyNeverInterferesWithWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	sys := bankSystem(t, 3)
	keys := bankKeys()

	// Partition the accounts by owning cluster.
	byCluster := make(map[int32][]string)
	for _, k := range keys {
		cl := sys.Part.Of(k)
		byCluster[cl] = append(byCluster[cl], k)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	var aborts, commits atomic.Int64

	// One writer per cluster, each confined to that cluster's accounts.
	for w := 0; w < 3; w++ {
		mine := byCluster[int32(w)]
		if len(mine) < 2 {
			continue
		}
		wg.Add(1)
		go func(w int, mine []string) {
			defer wg.Done()
			c := testClient(sys, uint32(10+w))
			rng := newRand(int64(w))
			for !stop.Load() {
				a, b := mine[rng.Intn(len(mine))], mine[rng.Intn(len(mine))]
				if a == b {
					continue
				}
				txn := c.Begin()
				av, err := txn.Read(a)
				if err != nil {
					continue
				}
				bv, err := txn.Read(b)
				if err != nil {
					continue
				}
				ai, _ := strconv.Atoi(string(av))
				bi, _ := strconv.Atoi(string(bv))
				txn.Write(a, []byte(strconv.Itoa(ai-1)))
				txn.Write(b, []byte(strconv.Itoa(bi+1)))
				if err := txn.Commit(); err != nil {
					if errors.Is(err, client.ErrAborted) {
						aborts.Add(1)
					}
					continue
				}
				commits.Add(1)
			}
		}(w, mine)
	}
	// Heavy read-only pressure over every account.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := testClient(sys, uint32(100+r))
			for !stop.Load() {
				if _, err := c.ReadOnly(keys); err != nil && !stop.Load() {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}(r)
	}

	time.Sleep(2 * time.Second)
	stop.Store(true)
	wg.Wait()

	if commits.Load() == 0 {
		t.Fatal("no writer progress under read-only load")
	}
	if aborts.Load() != 0 {
		t.Fatalf("%d writer aborts with disjoint write sets: read-only transactions interfered", aborts.Load())
	}
	t.Logf("%d disjoint-key transfers committed with zero aborts under read-only pressure", commits.Load())
}
