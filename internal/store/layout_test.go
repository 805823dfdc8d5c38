package store

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"testing"
)

// TestEntrySize pins the per-key cost of the shard layout: a key's newest
// version lives inline in its shard's sorted slice, 48 bytes and no
// allocation of its own.
func TestEntrySize(t *testing.T) {
	if got := reflect.TypeOf(entry{}).Size(); got != 48 {
		t.Errorf("entry is %d bytes, want 48", got)
	}
}

func assertExactShards(t *testing.T, s *Store, what string) {
	t.Helper()
	for i := range s.shards {
		if es := s.shards[i].entries; len(es) != cap(es) {
			t.Errorf("%s: shard %d holds %d entries in a slice of capacity %d", what, i, len(es), cap(es))
		}
	}
}

// TestLoadAndImportSizeShardsExactly: the genesis load and a checkpoint
// install, the two whole-keyspace builds, allocate every shard's slice at
// exactly its length.
func TestLoadAndImportSizeShardsExactly(t *testing.T) {
	init := make(map[string][]byte, 1000)
	for i := 0; i < 1000; i++ {
		init[fmt.Sprintf("key-%04d", i)] = []byte{byte(i)}
	}
	s := New()
	s.Load(init)
	assertExactShards(t, s, "Load")

	s.ApplyAll(1, map[string][]byte{"key-0001": []byte("x"), "new-key": []byte("y")})
	snap := s.ExportAsOf(1)
	dst := New()
	dst.Load(map[string][]byte{"stale": []byte("gone")})
	dst.ImportAsOf(1, snap)
	assertExactShards(t, dst, "ImportAsOf")
	if dst.Keys() != 1001 {
		t.Fatalf("Keys after import = %d, want 1001", dst.Keys())
	}
}

// TestExportAsOfAllocations: an export allocates the shard runs and the
// merged result, nothing per key.
func TestExportAsOfAllocations(t *testing.T) {
	init := make(map[string][]byte, 10000)
	for i := 0; i < 10000; i++ {
		init[fmt.Sprintf("key-%05d", i)] = []byte{byte(i)}
	}
	s := New()
	s.Load(init)
	s.ApplyAll(1, map[string][]byte{"key-00001": []byte("x")})
	// A collection cycle started by these large allocations makes a few
	// of its own; keep the collector out of the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := testing.AllocsPerRun(5, func() { s.ExportAsOf(0) }); n > 2 {
		t.Errorf("ExportAsOf of 10000 keys: %v allocations, want <= 2", n)
	}
}
