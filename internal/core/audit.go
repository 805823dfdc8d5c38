package core

import (
	"errors"
	"fmt"

	"transedge/internal/cryptoutil"
	"transedge/internal/protocol"
)

// Log verification: VerifyLog checks offline that a sequence of certified
// batch headers is a well-formed TransEdge history — every batch
// certified by f+1 replicas, hash-chained to its predecessor, with
// monotone CD vectors and LCE numbers. It trusts nothing but the key
// ring, so records from any (untrusted) source can be checked. This
// generalizes the paper's trust argument from single reads to whole
// histories (cf. BlockchainDB's verification discussion, Sec. 6.3).

// LogRecord is one exported log entry: the certified batch header.
type LogRecord struct {
	Header protocol.BatchHeader
	Cert   cryptoutil.Certificate
}

// Audit verification errors.
var (
	ErrAuditEmpty    = errors.New("core: audit log is empty")
	ErrAuditChain    = errors.New("core: audit log chain broken")
	ErrAuditCert     = errors.New("core: audit log certificate invalid")
	ErrAuditSegment  = errors.New("core: audit log read-only segment malformed")
	ErrAuditMonotone = errors.New("core: audit log metadata not monotone")
)

// VerifyLog checks an exported log against the key ring: sequential IDs,
// intact PrevDigest chain, a valid f+1 certificate on every entry, CD
// self-entries equal to batch IDs, and monotone CD vectors and LCE
// numbers. The first record anchors the audit (commonly genesis, batch 0).
func VerifyLog(ring *cryptoutil.KeyRing, clusters int, rec []LogRecord) error {
	if len(rec) == 0 {
		return ErrAuditEmpty
	}
	cluster := rec[0].Header.Cluster
	size := ring.ClusterSize(cluster)
	if size == 0 {
		return fmt.Errorf("%w: unknown cluster %d", ErrAuditCert, cluster)
	}
	threshold := (size-1)/3 + 1

	for i := range rec {
		h := &rec[i].Header
		if h.Cluster != cluster {
			return fmt.Errorf("%w: record %d from cluster %d", ErrAuditChain, i, h.Cluster)
		}
		if len(h.CD) != clusters {
			return fmt.Errorf("%w: record %d CD has %d entries, want %d", ErrAuditSegment, i, len(h.CD), clusters)
		}
		if h.CD[cluster] != h.ID {
			return fmt.Errorf("%w: record %d CD self entry %d != ID %d", ErrAuditSegment, i, h.CD[cluster], h.ID)
		}
		if h.LCE >= h.ID {
			return fmt.Errorf("%w: record %d LCE %d >= ID %d", ErrAuditSegment, i, h.LCE, h.ID)
		}
		d := h.Digest()
		if err := cryptoutil.VerifyCertificate(ring, rec[i].Cert, d[:], threshold); err != nil {
			return fmt.Errorf("%w: record %d: %v", ErrAuditCert, i, err)
		}
		if i == 0 {
			continue
		}
		prev := &rec[i-1].Header
		if h.ID != prev.ID+1 {
			return fmt.Errorf("%w: record %d has ID %d after %d", ErrAuditChain, i, h.ID, prev.ID)
		}
		if h.PrevDigest != prev.Digest() {
			return fmt.Errorf("%w: record %d does not extend record %d", ErrAuditChain, i, i-1)
		}
		if h.LCE < prev.LCE {
			return fmt.Errorf("%w: LCE regressed %d -> %d at record %d", ErrAuditMonotone, prev.LCE, h.LCE, i)
		}
		for j := range h.CD {
			if h.CD[j] < prev.CD[j] {
				return fmt.Errorf("%w: CD[%d] regressed %d -> %d at record %d",
					ErrAuditMonotone, j, prev.CD[j], h.CD[j], i)
			}
		}
	}
	return nil
}
