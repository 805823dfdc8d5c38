package core

import "sort"

// windowedLog is the replica's retained window of the SMR log: a
// contiguous run of committed batches starting at an explicit base
// offset. The seed kept the whole log in a slice indexed by batch ID;
// stable checkpoints (DESIGN.md §6) let replicas truncate everything
// below the checkpoint, so every access goes through the base-relative
// accessors here instead of raw indexing.
//
// Invariants: entries[i] holds batch base+i; the window is never empty
// after init (it always holds at least the newest batch, which the
// next batch and read path anchor on).
type windowedLog struct {
	base    int64
	entries []*logEntry
}

// init installs the first entry (genesis, or a state-transferred
// checkpoint) as the window's base. The backing array is NOT reused: a
// re-init after a checkpoint install must release every old entry (and
// its batch body) to the GC, not keep them reachable past the slice
// length.
func (l *windowedLog) init(base int64, e *logEntry) {
	l.base = base
	l.entries = []*logEntry{e}
}

// baseID returns the oldest retained batch ID.
func (l *windowedLog) baseID() int64 { return l.base }

// lastID returns the newest committed batch ID.
func (l *windowedLog) lastID() int64 { return l.base + int64(len(l.entries)) - 1 }

// len returns the number of retained entries.
func (l *windowedLog) len() int { return len(l.entries) }

// get returns the entry for a batch ID, or nil when it is outside the
// window (truncated below, or not delivered yet).
func (l *windowedLog) get(id int64) *logEntry {
	if id < l.base || id > l.lastID() {
		return nil
	}
	return l.entries[id-l.base]
}

// last returns the newest entry.
func (l *windowedLog) last() *logEntry { return l.entries[len(l.entries)-1] }

// append adds the next committed batch. The caller (delivery, which is
// strictly ordered) guarantees e.header.ID == lastID()+1.
func (l *windowedLog) append(e *logEntry) { l.entries = append(l.entries, e) }

// truncate drops every entry with ID < below, returning how many were
// dropped. The newest entry is never dropped (below is clamped), so the
// window stays non-empty.
func (l *windowedLog) truncate(below int64) int {
	if below > l.lastID() {
		below = l.lastID()
	}
	if below <= l.base {
		return 0
	}
	n := int(below - l.base)
	// Shift in place and nil the tail so dropped entries (and their
	// batch bodies) are released to the GC immediately.
	copy(l.entries, l.entries[n:])
	for i := len(l.entries) - n; i < len(l.entries); i++ {
		l.entries[i] = nil
	}
	l.entries = l.entries[:len(l.entries)-n]
	l.base = below
	return n
}

// searchLCE returns the earliest retained batch whose LCE is at least p,
// or -1 when no retained batch satisfies it yet. LCE is monotone over
// the log, so binary search applies; a dependency satisfied only by a
// truncated prefix resolves to the base entry, which is at least as new
// and therefore still dependency-satisfying.
func (l *windowedLog) searchLCE(p int64) int64 {
	i := sort.Search(len(l.entries), func(i int) bool { return l.entries[i].header.LCE >= p })
	if i == len(l.entries) {
		return -1
	}
	return l.base + int64(i)
}

// each visits the retained entries in batch order.
func (l *windowedLog) each(fn func(*logEntry)) {
	for _, e := range l.entries {
		fn(e)
	}
}
