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
	"transedge/internal/histcheck"
)

// TestExecutionHistoryIsSerializable records a real concurrent execution
// — distributed writers plus snapshot readers — and runs the
// serializability-graph test (the formal tool behind Theorems 3.4/4.5) on
// the committed history. Each key has one designated writer, so per-key
// version orders are ground truth, and every read can be attributed to
// the transaction that installed the value it observed.
func TestExecutionHistoryIsSerializable(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const writers = 3
	const keysPerWriter = 4
	data := make(map[string][]byte)
	owned := make([][]string, writers)
	for w := 0; w < writers; w++ {
		for i := 0; i < keysPerWriter; i++ {
			k := fmt.Sprintf("ser-%d-%d", w, i)
			owned[w] = append(owned[w], k)
			data[k] = []byte("0")
		}
	}
	var all []string
	for _, ks := range owned {
		all = append(all, ks...)
	}

	sys := core.NewSystem(core.SystemConfig{
		Clusters: 3, F: 1, Seed: 11,
		BatchInterval: time.Millisecond,
		InitialData:   data,
	})
	sys.Start()
	t.Cleanup(sys.Stop)

	var (
		mu     sync.Mutex
		events []histcheck.Event
		stop   atomic.Bool
		wg     sync.WaitGroup
	)
	record := func(e histcheck.Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}

	// Writers: each transaction reads two of the writer's own keys and
	// writes both with bumped sequence numbers. Keys hash across
	// clusters, so most of these are distributed 2PC transactions.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := testClient(sys, uint32(10+w))
			seqs := make(map[string]int64, keysPerWriter)
			rng := newRand(int64(w) * 77)
			for !stop.Load() {
				a := owned[w][rng.Intn(keysPerWriter)]
				b := owned[w][rng.Intn(keysPerWriter)]
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
				aSeq, _ := strconv.ParseInt(string(av), 10, 64)
				bSeq, _ := strconv.ParseInt(string(bv), 10, 64)
				txn.Write(a, []byte(strconv.FormatInt(seqs[a]+1, 10)))
				txn.Write(b, []byte(strconv.FormatInt(seqs[b]+1, 10)))
				if err := txn.Commit(); err != nil {
					if errors.Is(err, client.ErrAborted) {
						continue // stale read due to 2PC lag; retry
					}
					if !stop.Load() {
						t.Errorf("writer %d: %v", w, err)
					}
					return
				}
				seqs[a]++
				seqs[b]++
				record(histcheck.Event{
					TxnID: fmt.Sprintf("w%d-%d-%d", w, seqs[a], seqs[b]),
					Reads: []histcheck.ReadOb{{Key: a, Seq: aSeq}, {Key: b, Seq: bSeq}},
					Writes: []histcheck.WriteOb{
						{Key: a, Seq: seqs[a]}, {Key: b, Seq: seqs[b]},
					},
				})
			}
		}(w)
	}

	// Readers: full snapshot reads over every key.
	roCount := atomic.Int64{}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := testClient(sys, uint32(100+r))
			i := 0
			for !stop.Load() {
				res, err := c.ReadOnly(all)
				if err != nil {
					if !stop.Load() {
						t.Errorf("reader %d: %v", r, err)
					}
					return
				}
				e := histcheck.Event{TxnID: fmt.Sprintf("ro%d-%d", r, i), ReadOnly: true}
				for _, k := range all {
					seq, _ := strconv.ParseInt(string(res.Values[k]), 10, 64)
					e.Reads = append(e.Reads, histcheck.ReadOb{Key: k, Seq: seq})
				}
				record(e)
				roCount.Add(1)
				i++
			}
		}(r)
	}

	time.Sleep(2 * time.Second)
	stop.Store(true)
	wg.Wait()

	// Writer TxnIDs must be unique; make them so before checking.
	seen := make(map[string]int)
	for i := range events {
		seen[events[i].TxnID]++
		if seen[events[i].TxnID] > 1 {
			events[i].TxnID = fmt.Sprintf("%s#%d", events[i].TxnID, seen[events[i].TxnID])
		}
	}
	if err := histcheck.CheckSerializable(events); err != nil {
		t.Fatalf("execution history not serializable: %v", err)
	}
	writes := 0
	for _, e := range events {
		if !e.ReadOnly {
			writes++
		}
	}
	if writes < 20 || roCount.Load() < 10 {
		t.Fatalf("history too thin to be meaningful: %d writes, %d reads", writes, roCount.Load())
	}
	t.Logf("serializability verified over %d write txns and %d snapshot reads", writes, roCount.Load())
}

// TestPipelineDepthsSerializableAndEquivalent is the pipelining
// regression property: under a mixed local/distributed workload, the
// histories produced at PipelineDepth 1, 2, and 4 must all be
// serializable, and a fixed-seed deterministic workload must leave
// exactly the same final state at every depth (speculative chaining must
// never change what commits, only when it commits).
func TestPipelineDepthsSerializableAndEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for _, depth := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("depth=%d/serializable", depth), func(t *testing.T) {
			runDepthHistory(t, depth)
		})
	}

	// Deterministic phase: one sequential client replays the same seeded
	// transaction sequence at every depth. Values are a function of the
	// transaction index only, so the expected final state is computable
	// up front and must be reached at every depth.
	const txns = 60
	const keyCount = 8
	keys := make([]string, keyCount)
	data := make(map[string][]byte)
	for i := range keys {
		keys[i] = fmt.Sprintf("det-%d", i)
		data[keys[i]] = []byte("seed")
	}
	expected := make(map[string]string)
	for _, k := range keys {
		expected[k] = "seed"
	}
	plan := make([][2]int, txns) // key indices written by txn j
	rng := newRand(1234)
	for j := range plan {
		a := rng.Intn(keyCount)
		b := rng.Intn(keyCount)
		plan[j] = [2]int{a, b}
		expected[keys[a]] = fmt.Sprintf("txn-%d-a", j)
		expected[keys[b]] = fmt.Sprintf("txn-%d-b", j)
		if a == b { // single write set entry wins with the b value
			expected[keys[a]] = fmt.Sprintf("txn-%d-b", j)
		}
	}

	for _, depth := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("depth=%d/final-state", depth), func(t *testing.T) {
			sys := core.NewSystem(core.SystemConfig{
				Clusters: 3, F: 1, Seed: 11,
				BatchInterval: time.Millisecond,
				PipelineDepth: depth,
				InitialData:   data,
			})
			sys.Start()
			t.Cleanup(sys.Stop)
			c := testClient(sys, 1)

			for j, p := range plan {
				// Retry on abort (a prior distributed commit may not have
				// reached every participant yet): the write values depend
				// only on j, so retries cannot change the final state.
				for {
					txn := c.Begin()
					if _, err := txn.Read(keys[p[0]]); err != nil {
						t.Fatalf("txn %d read: %v", j, err)
					}
					if _, err := txn.Read(keys[p[1]]); err != nil {
						t.Fatalf("txn %d read: %v", j, err)
					}
					txn.Write(keys[p[0]], []byte(fmt.Sprintf("txn-%d-a", j)))
					txn.Write(keys[p[1]], []byte(fmt.Sprintf("txn-%d-b", j)))
					err := txn.Commit()
					if err == nil {
						break
					}
					if !errors.Is(err, client.ErrAborted) {
						t.Fatalf("txn %d commit: %v", j, err)
					}
				}
			}

			// The snapshot served may trail the last commit briefly; poll
			// until it matches the precomputed expectation.
			deadline := time.Now().Add(5 * time.Second)
			for {
				res, err := c.ReadOnly(keys)
				if err != nil {
					t.Fatalf("final read-only: %v", err)
				}
				diff := ""
				for _, k := range keys {
					if got := string(res.Values[k]); got != expected[k] {
						diff = fmt.Sprintf("%s = %q, want %q", k, got, expected[k])
						break
					}
				}
				if diff == "" {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("final state at depth %d never converged: %s", depth, diff)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// runDepthHistory drives the concurrent mixed workload at one pipeline
// depth and checks the committed history is serializable.
func runDepthHistory(t *testing.T, depth int) {
	const writers = 3
	const keysPerWriter = 3
	data := make(map[string][]byte)
	owned := make([][]string, writers)
	for w := 0; w < writers; w++ {
		for i := 0; i < keysPerWriter; i++ {
			k := fmt.Sprintf("pd-%d-%d", w, i)
			owned[w] = append(owned[w], k)
			data[k] = []byte("0")
		}
	}
	var all []string
	for _, ks := range owned {
		all = append(all, ks...)
	}

	sys := core.NewSystem(core.SystemConfig{
		Clusters: 3, F: 1, Seed: 11,
		BatchInterval: time.Millisecond,
		PipelineDepth: depth,
		InitialData:   data,
	})
	sys.Start()
	t.Cleanup(sys.Stop)

	var (
		mu     sync.Mutex
		events []histcheck.Event
		stop   atomic.Bool
		wg     sync.WaitGroup
	)
	record := func(e histcheck.Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}

	// Writers: mixed shapes — two-key transactions usually span clusters
	// (distributed 2PC), single-key ones are local.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := testClient(sys, uint32(10+w))
			seqs := make(map[string]int64, keysPerWriter)
			rng := newRand(int64(depth)*1000 + int64(w)*77)
			commits := 0
			for !stop.Load() {
				ks := []string{owned[w][rng.Intn(keysPerWriter)]}
				if rng.Intn(3) > 0 { // 2/3 two-key (mostly distributed)
					b := owned[w][rng.Intn(keysPerWriter)]
					if b != ks[0] {
						ks = append(ks, b)
					}
				}
				txn := c.Begin()
				var reads []histcheck.ReadOb
				ok := true
				for _, k := range ks {
					v, err := txn.Read(k)
					if err != nil {
						ok = false
						break
					}
					seq, _ := strconv.ParseInt(string(v), 10, 64)
					reads = append(reads, histcheck.ReadOb{Key: k, Seq: seq})
				}
				if !ok {
					continue
				}
				var writesOb []histcheck.WriteOb
				for _, k := range ks {
					txn.Write(k, []byte(strconv.FormatInt(seqs[k]+1, 10)))
					writesOb = append(writesOb, histcheck.WriteOb{Key: k, Seq: seqs[k] + 1})
				}
				if err := txn.Commit(); err != nil {
					if errors.Is(err, client.ErrAborted) {
						continue
					}
					if !stop.Load() {
						t.Errorf("writer %d: %v", w, err)
					}
					return
				}
				for _, k := range ks {
					seqs[k]++
				}
				commits++
				record(histcheck.Event{
					TxnID:  fmt.Sprintf("d%d-w%d-%d", depth, w, commits),
					Reads:  reads,
					Writes: writesOb,
				})
			}
		}(w)
	}

	// One snapshot reader over every key.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := testClient(sys, 100)
		i := 0
		for !stop.Load() {
			res, err := c.ReadOnly(all)
			if err != nil {
				if !stop.Load() {
					t.Errorf("reader: %v", err)
				}
				return
			}
			e := histcheck.Event{TxnID: fmt.Sprintf("d%d-ro-%d", depth, i), ReadOnly: true}
			for _, k := range all {
				seq, _ := strconv.ParseInt(string(res.Values[k]), 10, 64)
				e.Reads = append(e.Reads, histcheck.ReadOb{Key: k, Seq: seq})
			}
			record(e)
			i++
		}
	}()

	time.Sleep(700 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	seen := make(map[string]int)
	for i := range events {
		seen[events[i].TxnID]++
		if seen[events[i].TxnID] > 1 {
			events[i].TxnID = fmt.Sprintf("%s#%d", events[i].TxnID, seen[events[i].TxnID])
		}
	}
	if err := histcheck.CheckSerializable(events); err != nil {
		t.Fatalf("depth %d history not serializable: %v", depth, err)
	}
	writes := 0
	for _, e := range events {
		if !e.ReadOnly {
			writes++
		}
	}
	if writes < 10 {
		t.Fatalf("depth %d history too thin: %d writes", depth, writes)
	}
	t.Logf("depth %d: %d write txns, %d events serializable", depth, writes, len(events))
}
