// IoT telemetry: regional edge ingestion with a consistent global
// dashboard — the Global-Edge Data Management scenario that motivates the
// paper.
//
// Sensor gateways write device readings to their region's edge partition
// (local transactions: cheap, no cross-region coordination). A region
// summary row is updated alongside each reading. The dashboard reads all
// region summaries with one verified snapshot read-only transaction —
// touching one untrusted node per region — and renders a consistent
// global view.
//
//	go run ./examples/iot
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

const regions = 4

// regionKey returns a key pinned to a region's partition by probing the
// key space (keys are placed by hash; gateways want region locality, so
// they pick keys that land on their partition — a real deployment would
// use a locality-aware partitioner).
func regionKey(sys *transedge.System, region int32, name string) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("r%d/%s/%d", region, name, i)
		if sys.PartitionOf(k) == region {
			return k
		}
	}
}

func main() {
	// Bootstrap: a probe system computes region-local key names, then the
	// real system preloads them.
	probe, err := transedge.Start(transedge.Options{Clusters: regions, F: 1, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	summaryKeys := make([]string, regions)
	deviceKeys := make([][]string, regions)
	for r := int32(0); r < regions; r++ {
		summaryKeys[r] = regionKey(probe, r, "summary")
		for d := 0; d < 3; d++ {
			deviceKeys[r] = append(deviceKeys[r], regionKey(probe, r, fmt.Sprintf("device-%d", d)))
		}
	}
	probe.Stop()

	data := make(map[string][]byte)
	for r := 0; r < regions; r++ {
		data[summaryKeys[r]] = []byte("0")
		for _, k := range deviceKeys[r] {
			data[k] = []byte("0")
		}
	}
	sys, err := transedge.Start(transedge.Options{
		Clusters:    regions,
		F:           1,
		Seed:        3,
		InitialData: data,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Stop()
	fmt.Println("edge fleet up:", sys)

	var stop atomic.Bool
	var wg sync.WaitGroup
	var ingested atomic.Int64

	// Gateways: one per region, ingesting readings with local
	// transactions (reading + summary row live on the same partition, so
	// no cross-region commit is ever needed).
	for r := 0; r < regions; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := sys.NewClient()
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				dev := deviceKeys[r][rng.Intn(len(deviceKeys[r]))]
				txn := c.Begin()
				sum, err := txn.Read(summaryKeys[r])
				if err != nil {
					continue
				}
				count, _ := strconv.Atoi(string(sum))
				txn.Write(dev, []byte(strconv.Itoa(rng.Intn(100))))
				txn.Write(summaryKeys[r], []byte(strconv.Itoa(count+1)))
				if err := txn.Commit(); err != nil {
					if errors.Is(err, transedge.ErrAborted) {
						continue
					}
					log.Fatal("gateway:", err)
				}
				ingested.Add(1)
			}
		}(r)
	}

	// Dashboard: global snapshot over every region summary, five times.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := sys.NewClient()
		for i := 0; i < 5; i++ {
			time.Sleep(300 * time.Millisecond)
			snap, err := c.ReadOnly(summaryKeys)
			if err != nil {
				log.Fatal("dashboard:", err)
			}
			fmt.Printf("dashboard #%d (rounds=%d): ", i+1, snap.Rounds)
			for r := 0; r < regions; r++ {
				fmt.Printf("region%d=%s ", r, snap.Values[summaryKeys[r]])
			}
			fmt.Println()
		}
		stop.Store(true)
	}()

	wg.Wait()
	fmt.Printf("ingested %d readings across %d regions; dashboards verified against f+1 certificates\n",
		ingested.Load(), regions)
}
