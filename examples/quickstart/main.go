// Quickstart: start a small TransEdge deployment, run a read-write
// transaction, and read a verified snapshot back.
//
//	go run ./examples/quickstart
//
// With -datadir the deployment also persists a write-ahead log and
// checkpoints there, and the program restarts the whole cluster from
// disk to show the committed transfer surviving a full shutdown:
//
//	go run ./examples/quickstart -datadir /tmp/transedge-quickstart
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"transedge/transedge"
)

func main() {
	datadir := flag.String("datadir", "", "persist WAL+checkpoints here and demo a cold restart")
	flag.Parse()

	// Three partitions, each replicated on a 4-node byzantine cluster
	// (f=1), with a little initial data.
	opts := transedge.Options{
		Clusters: 3,
		F:        1,
		Seed:     1,
		DataDir:  *datadir,
		InitialData: map[string][]byte{
			"alice": []byte("100"),
			"bob":   []byte("100"),
			"carol": []byte("100"),
		},
	}
	sys, err := transedge.Start(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Stop()
	fmt.Println("started:", sys)

	c := sys.NewClient()

	// A read-write transaction: moves 25 from alice to bob. The two keys
	// usually live on different partitions, so this is a full 2PC-over-
	// BFT distributed commit.
	txn := c.Begin()
	a, err := txn.Read("alice")
	if err != nil {
		log.Fatal(err)
	}
	b, err := txn.Read("bob")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("before: alice=%s bob=%s\n", a, b)
	txn.Write("alice", []byte("75"))
	txn.Write("bob", []byte("125"))
	if err := txn.Commit(); err != nil {
		log.Fatal("commit:", err)
	}
	fmt.Println("transfer committed")

	// A snapshot read-only transaction: one request per partition, each
	// answered by a single (untrusted) node, with Merkle proofs and an
	// f+1 certificate verified client-side. Retries until both
	// partitions show the transfer (participant commits land async).
	waitTransfer(c)

	if *datadir == "" {
		return
	}

	// Durability: every certified batch above was fsynced to the WAL
	// before it was applied. Stop every replica and restart the cluster
	// from the data dir alone — the committed transfer must still be
	// there, recovered without any surviving peer to copy from.
	_, appended, _, _ := sys.DurabilityStats()
	fmt.Printf("\nstopping all replicas (%d batches in the WAL at %s)...\n", appended, *datadir)
	sys.Stop()

	sys2, err := transedge.Start(opts)
	if err != nil {
		log.Fatal("restart:", err)
	}
	defer sys2.Stop()
	waitTransfer(sys2.NewClient())
	cold, _, replayed, _ := sys2.DurabilityStats()
	fmt.Printf("cold restart: %d replicas recovered from disk, %d batches replayed from the WAL\n",
		cold, replayed)
}

// waitTransfer polls verified snapshots until both partitions show the
// committed transfer, then prints it.
func waitTransfer(c *transedge.Client) {
	for {
		snap, err := c.ReadOnly([]string{"alice", "bob", "carol"})
		if err != nil {
			log.Fatal("read-only:", err)
		}
		if string(snap.Values["alice"]) == "75" && string(snap.Values["bob"]) == "125" {
			fmt.Printf("verified snapshot (rounds=%d): alice=%s bob=%s carol=%s\n",
				snap.Rounds,
				snap.Values["alice"], snap.Values["bob"], snap.Values["carol"])
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}
