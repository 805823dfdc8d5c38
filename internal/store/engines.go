package store

import (
	"fmt"
	"sync"
)

// The engine registry maps backend names to constructors. Every replica
// runs the sharded store (NewSharded); the registry survives only so the
// benchmark's store probes can build the conformance-tested lsm backend
// by name, which registers itself from an init function. Every
// registered backend must pass the storetest conformance suite.

// DefaultEngine is the backend selected by an empty engine name: the
// sharded in-memory MVCC store, the seed's semantics.
const DefaultEngine = "sharded"

// EngineBuilder constructs one engine instance with the given shard count
// (0 = DefaultShards); backends without a shard concept may ignore it.
type EngineBuilder func(shards int) Engine

var (
	enginesMu sync.RWMutex
	engines   = map[string]EngineBuilder{
		DefaultEngine: func(shards int) Engine { return NewSharded(shards) },
	}
)

// RegisterEngine adds a named backend. Intended to be called from init
// functions of backend packages; registering a duplicate name panics
// (two backends claiming one name is a programming error, not a runtime
// condition).
func RegisterEngine(name string, build EngineBuilder) {
	enginesMu.Lock()
	defer enginesMu.Unlock()
	if name == "" || build == nil {
		panic("store: RegisterEngine with empty name or nil builder")
	}
	if _, dup := engines[name]; dup {
		panic(fmt.Sprintf("store: engine %q registered twice", name))
	}
	engines[name] = build
}

// NewEngine builds the named backend ("" selects DefaultEngine). An
// unknown name is an error, never a silent fallback to the default.
func NewEngine(name string, shards int) (Engine, error) {
	if name == "" {
		name = DefaultEngine
	}
	enginesMu.RLock()
	build, ok := engines[name]
	enginesMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unknown storage engine %q", name)
	}
	return build(shards), nil
}
