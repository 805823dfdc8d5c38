package store

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// The engine registry maps backend names to constructors so the rest of
// the system can select a storage engine by configuration string
// ("sharded", "lsm", ...) instead of linking against a concrete type.
// Alternate backends register themselves from an init function; whoever
// builds nodes (internal/core) imports them for the side effect. Every
// registered backend must pass the storetest conformance suite — the
// registry is how a name in a config file becomes code the replica core
// is allowed to trust.

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

// EngineNames returns the registered backend names, sorted.
func EngineNames() []string {
	enginesMu.RLock()
	defer enginesMu.RUnlock()
	names := make([]string, 0, len(engines))
	for name := range engines {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CheckEngine reports whether name ("" selects DefaultEngine) is a
// registered backend. An unknown name is an error listing the valid
// backends — callers surface it instead of silently falling back to the
// default, so a typo in an -engine flag or Options.Engine can never
// masquerade as a measurement of the sharded store.
func CheckEngine(name string) error {
	if name == "" || slices.Contains(EngineNames(), name) {
		return nil
	}
	return fmt.Errorf("unknown storage engine %q (valid engines: %s)",
		name, strings.Join(EngineNames(), ", "))
}

// NewEngine builds the named backend ("" selects DefaultEngine), failing
// as CheckEngine does on an unknown name.
func NewEngine(name string, shards int) (Engine, error) {
	if name == "" {
		name = DefaultEngine
	}
	enginesMu.RLock()
	build, ok := engines[name]
	enginesMu.RUnlock()
	if !ok {
		return nil, CheckEngine(name)
	}
	return build(shards), nil
}
