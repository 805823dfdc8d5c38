package core_test

import (
	"errors"
	"testing"
	"time"

	"transedge/internal/core"
)

// auditLog asks one replica for its certified log.
func auditLog(t *testing.T, sys *core.System, node core.NodeID) []core.LogRecord {
	t.Helper()
	replyTo := make(chan core.AuditReply, 1)
	client := core.NodeID{Cluster: -1, Replica: 999}
	sys.Net.Register(client)
	sys.Net.Send(client, node, &core.AuditRequest{ReplyTo: replyTo})
	select {
	case r := <-replyTo:
		return r.Records
	case <-time.After(5 * time.Second):
		t.Fatal("audit request timed out")
		return nil
	}
}

// runTraffic commits a handful of local and distributed transactions.
func runTraffic(t *testing.T, sys *core.System) {
	t.Helper()
	c := testClient(sys, 50)
	k0 := keysOn(sys, 0, 3)
	k1 := keysOn(sys, 1, 3)
	for i := 0; i < 3; i++ {
		txn := c.Begin()
		if _, err := txn.Read(k0[i]); err != nil {
			t.Fatal(err)
		}
		txn.Write(k0[i], []byte("local"))
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		txn2 := c.Begin()
		if _, err := txn2.Read(k0[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := txn2.Read(k1[i]); err != nil {
			t.Fatal(err)
		}
		txn2.Write(k0[i], []byte("dist-a"))
		txn2.Write(k1[i], []byte("dist-b"))
		if err := txn2.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond) // let participant commits land
}

func TestAuditAcceptsHonestLog(t *testing.T) {
	sys := testSystem(t, 2, 1, 100)
	runTraffic(t, sys)

	for _, node := range []core.NodeID{{Cluster: 0, Replica: 0}, {Cluster: 1, Replica: 2}} {
		rec := auditLog(t, sys, node)
		if len(rec) < 3 {
			t.Fatalf("node %v exported only %d records", node, len(rec))
		}
		if err := core.VerifyLog(sys.Ring, sys.Cfg.Clusters, rec); err != nil {
			t.Fatalf("honest log from %v rejected: %v", node, err)
		}
	}
}

func TestAuditDetectsTampering(t *testing.T) {
	sys := testSystem(t, 2, 1, 100)
	runTraffic(t, sys)
	rec := auditLog(t, sys, core.NodeID{Cluster: 0, Replica: 0})
	if len(rec) < 3 {
		t.Fatalf("only %d records", len(rec))
	}

	mutations := []struct {
		name string
		mut  func([]core.LogRecord)
		want error
	}{
		{"forged merkle root", func(r []core.LogRecord) { r[1].Header.MerkleRoot[0] ^= 1 }, core.ErrAuditCert},
		{"bumped LCE", func(r []core.LogRecord) { r[1].Header.LCE = r[1].Header.ID + 5 }, core.ErrAuditSegment},
		{"dropped record", nil, core.ErrAuditChain},
		{"regressed CD", func(r []core.LogRecord) {
			last := len(r) - 1
			r[last].Header.CD[1] = -1
		}, core.ErrAuditCert}, // any CD edit also breaks the certificate
	}
	for _, m := range mutations {
		cp := append([]core.LogRecord(nil), rec...)
		for i := range cp {
			cp[i].Header.CD = cp[i].Header.CD.Clone()
		}
		if m.mut != nil {
			m.mut(cp)
		} else {
			cp = append(cp[:1], cp[2:]...) // drop record 1
		}
		if err := core.VerifyLog(sys.Ring, sys.Cfg.Clusters, cp); err == nil {
			t.Fatalf("%s: tampered log accepted", m.name)
		} else if !errors.Is(err, m.want) {
			t.Fatalf("%s: err = %v, want %v", m.name, err, m.want)
		}
	}
}

func TestAuditEmptyAndPartial(t *testing.T) {
	sys := testSystem(t, 2, 1, 100)
	if err := core.VerifyLog(sys.Ring, 2, nil); !errors.Is(err, core.ErrAuditEmpty) {
		t.Fatalf("empty log: %v", err)
	}
	runTraffic(t, sys)
	rec := auditLog(t, sys, core.NodeID{Cluster: 0, Replica: 0})
	// A suffix of the log (anchored at a later batch) must also verify:
	// auditors can do incremental audits.
	if len(rec) < 3 {
		t.Fatalf("only %d records", len(rec))
	}
	if err := core.VerifyLog(sys.Ring, sys.Cfg.Clusters, rec[1:]); err != nil {
		t.Fatalf("suffix audit rejected: %v", err)
	}
}

// TestSnapshotRetentionBoundsStateAndKeepsServing: with checkpoints a few
// batches apart, truncation and store pruning run several times over, and
// reads and audits keep working against the retained window.
func TestSnapshotRetentionBoundsStateAndKeepsServing(t *testing.T) {
	const interval = 4
	sys := testSystem(t, 2, 1, 100, func(cfg *core.SystemConfig) {
		cfg.CheckpointInterval = interval
	})
	c := testClient(sys, 1)
	key := keysOn(sys, 0, 1)[0]
	other := keysOn(sys, 1, 1)[0]

	// Drive enough batches to trigger pruning several times over.
	for i := 0; i < 25; i++ {
		txn := c.Begin()
		if _, err := txn.Read(key); err != nil {
			t.Fatal(err)
		}
		txn.Write(key, []byte{byte(i)})
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// Read-only transactions (including cross-partition ones that may
	// need round 2) still work against the retained window.
	res, err := c.ReadOnly([]string{key, other})
	if err != nil {
		t.Fatalf("read-only after pruning: %v", err)
	}
	if res.Values[key] == nil {
		t.Fatal("missing value after pruning")
	}
	// The retained window still audits: it is anchored at a stable
	// checkpoint past genesis and spans about one interval, not the whole
	// history.
	rec := auditLog(t, sys, core.NodeID{Cluster: 0, Replica: 0})
	if err := core.VerifyLog(sys.Ring, sys.Cfg.Clusters, rec); err != nil {
		t.Fatalf("audit after pruning: %v", err)
	}
	if rec[0].Header.ID == 0 {
		t.Fatal("audit trail still starts at genesis: the log was never truncated")
	}
	if maxLen := 2*interval + 8; len(rec) > maxLen {
		t.Fatalf("audit trail holds %d records, want <= %d", len(rec), maxLen)
	}
}
