package transedge_test

import (
	"errors"
	"fmt"
	"testing"

	"transedge/transedge"
)

func startSystem(t *testing.T, clusters int) *transedge.System {
	t.Helper()
	data := make(map[string][]byte)
	for i := 0; i < 60; i++ {
		data[fmt.Sprintf("k%02d", i)] = []byte("v0")
	}
	sys, err := transedge.Start(transedge.Options{
		Clusters:    clusters,
		F:           1,
		Seed:        1,
		InitialData: data,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	return sys
}

func TestStartValidatesOptions(t *testing.T) {
	if _, err := transedge.Start(transedge.Options{Clusters: 0, F: 1}); !errors.Is(err, transedge.ErrBadOptions) {
		t.Fatalf("Clusters=0: err = %v", err)
	}
	if _, err := transedge.Start(transedge.Options{Clusters: 1, F: 0}); !errors.Is(err, transedge.ErrBadOptions) {
		t.Fatalf("F=0: err = %v", err)
	}
}

func TestSystemAccessors(t *testing.T) {
	sys := startSystem(t, 3)
	if sys.Clusters() != 3 {
		t.Fatalf("Clusters = %d", sys.Clusters())
	}
	if sys.Replicas() != 4 {
		t.Fatalf("Replicas = %d, want 4 (f=1)", sys.Replicas())
	}
	if p := sys.PartitionOf("k00"); p < 0 || p >= 3 {
		t.Fatalf("PartitionOf out of range: %d", p)
	}
	if sys.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestEndToEndThroughPublicAPI(t *testing.T) {
	sys := startSystem(t, 2)
	c := sys.NewClient()

	txn := c.Begin()
	v, err := txn.Read("k01")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v0" {
		t.Fatalf("initial read %q", v)
	}
	txn.Write("k01", []byte("v1"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	snap, err := c.ReadOnly([]string{"k01", "k02"})
	if err != nil {
		t.Fatal(err)
	}
	if string(snap.Values["k01"]) != "v1" {
		t.Fatalf("snapshot k01 = %q", snap.Values["k01"])
	}
	if snap.Rounds < 1 {
		t.Fatal("rounds not reported")
	}
}

func TestDistinctClientIdentities(t *testing.T) {
	sys := startSystem(t, 2)
	a, b := sys.NewClient(), sys.NewClient()
	ta, tb := a.Begin(), b.Begin()
	if ta.ID() == tb.ID() {
		t.Fatal("two clients minted the same transaction ID")
	}
}

func TestAbortSurfacesAsErrAborted(t *testing.T) {
	sys := startSystem(t, 2)
	c := sys.NewClient()
	t1, t2 := c.Begin(), c.Begin()
	if _, err := t1.Read("k03"); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Read("k03"); err != nil {
		t.Fatal(err)
	}
	t1.Write("k03", []byte("a"))
	t2.Write("k03", []byte("b"))
	e1, e2 := t1.Commit(), t2.Commit()
	loser := e1
	if loser == nil {
		loser = e2
	}
	if !errors.Is(loser, transedge.ErrAborted) {
		t.Fatalf("loser err = %v, want ErrAborted", loser)
	}
}
