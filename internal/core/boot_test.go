package core

import (
	"fmt"
	"reflect"
	"testing"

	"transedge/internal/merkle"
	"transedge/internal/protocol"
	"transedge/internal/store"
)

// TestBootIsDeterministicAndSharesNoTree: NewSystem builds its replicas
// side by side, so what it builds must not depend on who finished first.
// Two systems from one configuration (the second a restart over the same
// DataDir, which pins the genesis timestamp) certify bit-identical genesis
// headers; every replica's tree reproduces the certified root, which is
// the root the Insert oracle computes for that cluster's keys; no two
// replicas hold the same tree or write into one Merkle arena, so each pays
// — and a heap measurement counts — its own copy, and each event loop is
// its lineage's one writer; and no replica, nor the configuration a restart
// rebuilds it from, keeps its cluster's share of the initial data once
// loaded.
func TestBootIsDeterministicAndSharesNoTree(t *testing.T) {
	const clusters, keys = 3, 300
	cfg := SystemConfig{Clusters: clusters, F: 1, Seed: 7, DataDir: t.TempDir(),
		InitialData: make(map[string][]byte, keys)}
	for i := 0; i < keys; i++ {
		cfg.InitialData[fmt.Sprintf("key-%03d", i)] = []byte(fmt.Sprintf("init-%d", i))
	}

	boot := func() *System {
		sys := NewSystem(cfg)
		sys.Start()
		sys.Stop()
		return sys
	}
	first, second := boot(), boot()

	want := make([]*merkle.Tree, clusters)
	for c := range want {
		want[c] = merkle.New()
	}
	for k, v := range cfg.InitialData {
		c := first.Part.Of(k)
		want[c] = want[c].Insert([]byte(k), merkle.HashValue(protocol.LeafValue(nil, store.GenesisBatch, v)))
	}

	for c := int32(0); c < clusters; c++ {
		seen := make(map[*merkle.Tree]NodeID)
		for _, sys := range []*System{first, second} {
			for r := int32(0); r < int32(sys.ReplicasPerCluster()); r++ {
				id := NodeID{Cluster: c, Replica: r}
				n, ref := sys.nodes[id], first.nodes[NodeID{Cluster: c}]
				if !reflect.DeepEqual(n.cfg.GenesisHeader, ref.cfg.GenesisHeader) ||
					!reflect.DeepEqual(n.cfg.GenesisCert, ref.cfg.GenesisCert) {
					t.Fatalf("%v: genesis header or certificate differs from the first system's replica 0", id)
				}
				if got := n.cfg.GenesisHeader.MerkleRoot; got != want[c].Root() {
					t.Fatalf("%v: certified genesis root is not the Insert oracle's", id)
				}
				own := n.log.last().tree
				if own.Root() != n.cfg.GenesisHeader.MerkleRoot {
					t.Fatalf("%v: replica's tree does not reproduce the certified root", id)
				}
				if own.Len() != want[c].Len() || n.st.Keys() != want[c].Len() {
					t.Fatalf("%v: %d leaves, %d stored keys, want %d", id, own.Len(), n.st.Keys(), want[c].Len())
				}
				if n.cfg.InitialData != nil || sys.nodeCfgs[id].InitialData != nil {
					t.Fatalf("%v: the genesis share outlives the boot (node %d keys, restart config %d keys)",
						id, len(n.cfg.InitialData), len(sys.nodeCfgs[id].InitialData))
				}
				if other, dup := seen[own]; dup {
					t.Fatalf("%v shares its tree with %v", id, other)
				}
				for tree, other := range seen {
					if own.SharesArena(tree) {
						t.Fatalf("%v shares its Merkle arena with %v", id, other)
					}
				}
				seen[own] = id
			}
		}
	}
}
