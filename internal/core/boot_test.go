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
// — and a heap measurement counts — its own copy, each event loop is its
// lineage's one writer, and a batch one replica applies to its tree and
// store shows in no sibling's; and no replica, nor the configuration a
// restart rebuilds it from, keeps its cluster's share of the initial data
// once loaded. The genesis hashing is one tree build per cluster: the
// other replicas copy that tree, they do not rebuild it. Not parallel:
// merkle.HashOps counts every goroutine's hashes.
func TestBootIsDeterministicAndSharesNoTree(t *testing.T) {
	const clusters, keys = 3, 300
	cfg := SystemConfig{Clusters: clusters, F: 1, Seed: 7, DataDir: t.TempDir(),
		InitialData: make(map[string][]byte, keys)}
	for i := 0; i < keys; i++ {
		cfg.InitialData[fmt.Sprintf("key-%03d", i)] = []byte(fmt.Sprintf("init-%d", i))
	}

	var bootHashes []uint64
	boot := func() *System {
		ops := merkle.HashOps()
		sys := NewSystem(cfg)
		bootHashes = append(bootHashes, merkle.HashOps()-ops)
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
				if n.cfg.GenesisData != nil || sys.nodeCfgs[id].GenesisData != nil ||
					n.cfg.InitialData != nil || sys.nodeCfgs[id].InitialData != nil {
					t.Fatalf("%v: the genesis share outlives the boot (node %d keys, restart config %d keys)",
						id, len(n.cfg.GenesisData), len(sys.nodeCfgs[id].GenesisData))
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

	// One build per cluster: the hashes NewSystem computes are those of
	// building each cluster's tree once from its bindings.
	var perCluster uint64
	for c := range want {
		ups := want[c].ExportLeaves()
		ops := merkle.HashOps()
		merkle.Build(ups)
		perCluster += merkle.HashOps() - ops
	}
	for i, got := range bootHashes {
		if got != perCluster {
			t.Fatalf("boot %d hashed %d Merkle nodes, want %d: one genesis build per cluster", i+1, got, perCluster)
		}
	}

	// A batch replica 0 applies reaches neither a sibling's arena nor its
	// store.
	for c := int32(0); c < clusters; c++ {
		owner := first.nodes[NodeID{Cluster: c}]
		var key string
		for k := range cfg.InitialData {
			if first.Part.Of(k) == c {
				key = k
				break
			}
		}
		arenas := make(map[NodeID]int)
		for r := int32(1); r < int32(first.ReplicasPerCluster()); r++ {
			id := NodeID{Cluster: c, Replica: r}
			arenas[id], _ = first.nodes[id].log.last().tree.Arena()
		}
		before, _ := owner.log.last().tree.Arena()
		next := owner.log.last().tree.ApplyBulk([]merkle.Update{{
			KeyHash: merkle.HashKey([]byte(key)),
			ValHash: merkle.HashValue(protocol.LeafValue(nil, 1, []byte("written"))),
		}})
		owner.st.ApplyAll(1, map[string][]byte{key: []byte("written")})
		if after, _ := next.Arena(); after <= before {
			t.Fatalf("cluster %d: the applied batch added no node to replica 0's arena (%d → %d)", c, before, after)
		}
		for id, nodes := range arenas {
			sib := first.nodes[id]
			if got, _ := sib.log.last().tree.Arena(); got != nodes {
				t.Fatalf("%v: replica 0's batch grew this replica's arena %d → %d", id, nodes, got)
			}
			if v, writer, _ := sib.st.Get(key); string(v) != string(cfg.InitialData[key]) || writer != store.GenesisBatch {
				t.Fatalf("%v: reads %q written by %d, replica 0's batch reached its store", id, v, writer)
			}
		}
	}
}
