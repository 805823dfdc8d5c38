package core

import (
	"errors"
	"fmt"

	"transedge/internal/protocol"
)

// Conflict detection (paper Def. 3.1). A transaction is admitted to the
// in-progress batch only if
//
//	(1) none of its reads were overwritten by committed batches,
//	(2) it does not conflict with transactions already in the in-progress
//	    (or in-flight) batch, and
//	(3) it does not conflict with prepared-but-undecided distributed
//	    transactions.
//
// Conflicts are the standard rw/wr/ww intersections, so read keys and
// write keys are tracked separately: two concurrent readers of a key do
// not conflict, but a reader and a writer (or two writers) do.

// ErrConflict is returned when a transaction fails conflict detection.
var ErrConflict = errors.New("core: transaction conflicts")

// keyRefs is a refcounted key set (reads need refcounts: several pending
// transactions may read the same key).
type keyRefs map[string]int

func (r keyRefs) add(k string)      { r[k]++ }
func (r keyRefs) has(k string) bool { return r[k] > 0 }
func (r keyRefs) release(k string) {
	if n := r[k]; n > 1 {
		r[k] = n - 1
	} else {
		delete(r, k)
	}
}

// footprint is the OCC footprint of a set of transactions: the keys
// they read and the keys they write, each refcounted.
type footprint struct{ reads, writes keyRefs }

func newFootprint() footprint { return footprint{reads: make(keyRefs), writes: make(keyRefs)} }

// add reserves one transaction's footprint.
func (f footprint) add(reads []protocol.ReadEntry, writes []protocol.WriteOp) {
	for _, r := range reads {
		f.reads.add(r.Key)
	}
	for _, w := range writes {
		f.writes.add(w.Key)
	}
}

// release drops one transaction's footprint.
func (f footprint) release(reads []protocol.ReadEntry, writes []protocol.WriteOp) {
	for _, r := range reads {
		f.reads.release(r.Key)
	}
	for _, w := range writes {
		f.writes.release(w.Key)
	}
}

// conflictEnv is the environment a transaction's local footprint is
// checked against: the committed store plus the pending (in-progress /
// in-flight batch) and prepared (undecided 2PC) footprints.
type conflictEnv struct {
	lastWriter        func(key string) int64
	pending, prepared footprint
}

// check applies Def. 3.1 to the given local read and write footprint.
func (e *conflictEnv) check(reads []protocol.ReadEntry, writes []protocol.WriteOp) error {
	for _, r := range reads {
		// Rule 1: the version read must still be current.
		if got := e.lastWriter(r.Key); got != r.Version {
			return fmt.Errorf("%w: stale read of %q (read version %d, current %d)",
				ErrConflict, r.Key, r.Version, got)
		}
		// Rules 2+3: reading a key a pending or prepared txn writes (wr).
		if e.pending.writes.has(r.Key) || e.prepared.writes.has(r.Key) {
			return fmt.Errorf("%w: read of %q overlaps an in-flight write", ErrConflict, r.Key)
		}
	}
	for _, w := range writes {
		// Rules 2+3: writing a key a pending or prepared txn reads (rw)
		// or writes (ww).
		if e.pending.writes.has(w.Key) || e.prepared.writes.has(w.Key) {
			return fmt.Errorf("%w: write of %q overlaps an in-flight write", ErrConflict, w.Key)
		}
		if e.pending.reads.has(w.Key) || e.prepared.reads.has(w.Key) {
			return fmt.Errorf("%w: write of %q overlaps an in-flight read", ErrConflict, w.Key)
		}
	}
	return nil
}
