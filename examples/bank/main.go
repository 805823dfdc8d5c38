// Bank: concurrent cross-edge transfers with a consistent global audit.
//
// Accounts are spread over five edge partitions. Teller goroutines run
// random transfers (distributed read-write transactions), while an
// auditor continuously takes verified snapshot reads of the whole ledger
// and checks that the total balance never wavers — the snapshot
// consistency guarantee of the paper's read-only protocol, exercised
// under real concurrency.
//
//	go run ./examples/bank
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"transedge/transedge"
)

const (
	accounts = 20
	initial  = 1000
	tellers  = 4
	runFor   = 2 * time.Second
)

func account(i int) string { return fmt.Sprintf("acct-%02d", i) }

func main() {
	data := make(map[string][]byte, accounts)
	keys := make([]string, accounts)
	for i := 0; i < accounts; i++ {
		keys[i] = account(i)
		data[keys[i]] = []byte(strconv.Itoa(initial))
	}
	sys, err := transedge.Start(transedge.Options{
		Clusters:    5,
		F:           1,
		Seed:        7,
		InitialData: data,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Stop()
	fmt.Println("bank open:", sys)

	var (
		stop     atomic.Bool
		wg       sync.WaitGroup
		commits  atomic.Int64
		aborts   atomic.Int64
		audits   atomic.Int64
		repaired atomic.Int64
	)

	// Tellers: random transfers between accounts on (usually) different
	// edge partitions.
	for w := 0; w < tellers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := sys.NewClient()
			rng := rand.New(rand.NewSource(int64(w)))
			for !stop.Load() {
				from, to := keys[rng.Intn(accounts)], keys[rng.Intn(accounts)]
				if from == to {
					continue
				}
				txn := c.Begin()
				fv, err := txn.Read(from)
				if err != nil {
					continue
				}
				tv, err := txn.Read(to)
				if err != nil {
					continue
				}
				fb, _ := strconv.Atoi(string(fv))
				tb, _ := strconv.Atoi(string(tv))
				amount := 1 + rng.Intn(20)
				if fb < amount {
					continue
				}
				txn.Write(from, []byte(strconv.Itoa(fb-amount)))
				txn.Write(to, []byte(strconv.Itoa(tb+amount)))
				switch err := txn.Commit(); {
				case err == nil:
					commits.Add(1)
				case errors.Is(err, transedge.ErrAborted):
					aborts.Add(1) // OCC conflict; the teller just retries
				default:
					log.Fatal("teller:", err)
				}
			}
		}(w)
	}

	// Auditor: full-ledger verified snapshots; the invariant must hold on
	// every single read, no matter how the transfers interleave.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := sys.NewClient()
		for !stop.Load() {
			snap, err := c.ReadOnly(keys)
			if err != nil {
				log.Fatal("auditor:", err)
			}
			total := 0
			for _, k := range keys {
				v, _ := strconv.Atoi(string(snap.Values[k]))
				total += v
			}
			if total != accounts*initial {
				log.Fatalf("AUDIT FAILED: ledger sums to %d, want %d", total, accounts*initial)
			}
			audits.Add(1)
			if snap.Rounds > 1 {
				repaired.Add(1)
			}
		}
	}()

	time.Sleep(runFor)
	stop.Store(true)
	wg.Wait()

	fmt.Printf("transfers: %d committed, %d aborted (conflicts)\n", commits.Load(), aborts.Load())
	fmt.Printf("audits:    %d verified snapshots, all summing to %d\n", audits.Load(), accounts*initial)
	fmt.Printf("           %d snapshots needed a dependency-repair round\n", repaired.Load())
}
