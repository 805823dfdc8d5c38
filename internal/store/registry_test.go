package store_test

import (
	"strings"
	"testing"

	"transedge/internal/store"
)

// TestNewEngineDefaultsAndErrors pins the registry contract: the empty
// name selects the sharded default, and an unknown name is an error
// that names it — no silent fallback.
func TestNewEngineDefaultsAndErrors(t *testing.T) {
	e, err := store.NewEngine("", 8)
	if err != nil {
		t.Fatalf(`NewEngine("") = %v`, err)
	}
	if _, ok := e.(*store.Store); !ok {
		t.Fatalf(`NewEngine("") built a %T, want the sharded store`, e)
	}
	if e, err = store.NewEngine(store.DefaultEngine, 8); err != nil {
		t.Fatalf("NewEngine(%q) = %v", store.DefaultEngine, err)
	} else if _, ok := e.(*store.Store); !ok {
		t.Fatalf("NewEngine(%q) built a %T", store.DefaultEngine, e)
	}

	_, err = store.NewEngine("no-such-backend", 8)
	if err == nil {
		t.Fatal("NewEngine(no-such-backend) succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "no-such-backend") {
		t.Fatalf("error %q does not echo the bad name", msg)
	}
}
