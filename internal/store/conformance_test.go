package store_test

import (
	"fmt"
	"testing"

	"transedge/internal/store"
	"transedge/internal/store/storetest"
)

// TestShardedEngineConformance runs the reusable Engine conformance suite
// against the sharded MVCC store at three shard counts: 1 (a single-lock
// store), 4, and 16 (DefaultShards). Alternate
// backends add their own one-line test calling storetest.Run.
func TestShardedEngineConformance(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			storetest.Run(t, func() store.Engine { return store.NewSharded(shards) })
		})
	}
}
