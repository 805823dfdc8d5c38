package lsm

import "sort"

// entry is one key's version history within a run, batches ascending.
type entry struct {
	key      string
	versions []version
}

// run is an immutable key-sorted batch of frozen version histories.
// minKey/maxKey let lookups skip runs whose key range can't contain the
// probe. Runs are never mutated after construction: pruning and
// compaction build replacement runs and swap the list under the write
// lock, which is what makes lock-free sharing with the background
// compactor sound.
type run struct {
	entries []entry
	minKey  string
	maxKey  string
}

func newRun(entries []entry) *run {
	return &run{
		entries: entries,
		minKey:  entries[0].key,
		maxKey:  entries[len(entries)-1].key,
	}
}

// find binary-searches the run for key; nil if absent.
func (r *run) find(key string) *entry {
	i := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].key >= key })
	if i < len(r.entries) && r.entries[i].key == key {
		return &r.entries[i]
	}
	return nil
}

// pruneStripe returns a copy of the run with stripe-i keys pruned to
// keepFrom, or (r, false) if nothing changed. kept carries which keys
// already have their floor version retained by a newer structure (the
// memtable or a newer run): those keys' versions here are all older
// than a retained version <= keepFrom and drop entirely. It is updated
// for keys whose floor version this run retains, so older runs can
// shed them.
func (r *run) pruneStripe(stripe int, keepFrom int64, kept map[string]bool) (*run, bool) {
	entries := make([]entry, 0, len(r.entries))
	changed := false
	for _, e := range r.entries {
		if stripeOf(e.key) != stripe {
			entries = append(entries, e)
			continue
		}
		if kept[e.key] {
			changed = true
			continue
		}
		vs := e.versions
		j := sort.Search(len(vs), func(j int) bool { return vs[j].batch > keepFrom })
		if j > 0 {
			kept[e.key] = true
		}
		if j > 1 {
			vs = append(vs[:0:0], vs[j-1:]...)
			changed = true
		}
		entries = append(entries, entry{key: e.key, versions: vs})
	}
	if !changed {
		return r, false
	}
	if len(entries) == 0 {
		return nil, true
	}
	return newRun(entries), true
}

// signalCompact nudges the compactor without blocking; the channel is
// level-triggered with capacity one, so a pending signal absorbs
// duplicates.
func (l *LSM) signalCompact() {
	select {
	case l.compactC <- struct{}{}:
	default:
	}
}

// compactLoop is the background compactor: each signal triggers at most
// one merge pass. Passes also re-signal themselves when more work
// remains (e.g. freezes landed during a merge).
func (l *LSM) compactLoop() {
	defer close(l.done)
	for {
		select {
		case <-l.stop:
			return
		case <-l.compactC:
			if l.compactPass() {
				l.signalCompact()
			}
		}
	}
}

// compactPass merges all current runs into one if enough accumulated.
// The merge runs outside the lock against an immutable snapshot of the
// run list; installation verifies the snapshot is still the tail of the
// list (freezes prepend, so new runs at the front are fine) and
// abandons otherwise — a prune rewrote a source run, and resurrecting
// its pre-prune versions would violate the prune contract. Returns
// whether another pass might have work.
func (l *LSM) compactPass() bool {
	l.mu.RLock()
	if len(l.runs) < l.opts.CompactRuns {
		l.mu.RUnlock()
		return false
	}
	src := append([]*run(nil), l.runs...)
	floor := l.floorLocked()
	l.mu.RUnlock()

	merged := mergeRuns(src, floor)

	l.mu.Lock()
	defer l.mu.Unlock()
	if !tailIs(l.runs, src) {
		// Inputs went stale mid-merge; the prune that rewrote them
		// already re-signaled, and the next pass sees fresh runs.
		return false
	}
	head := l.runs[: len(l.runs)-len(src) : len(l.runs)-len(src)]
	if merged != nil {
		l.runs = append(head, merged)
	} else {
		l.runs = head
	}
	l.compactions.Add(1)
	return len(l.runs) >= l.opts.CompactRuns
}

// tailIs reports whether src is exactly the identity-equal tail of
// runs.
func tailIs(runs, src []*run) bool {
	if len(runs) < len(src) {
		return false
	}
	off := len(runs) - len(src)
	for i, r := range src {
		if runs[off+i] != r {
			return false
		}
	}
	return true
}

// mergeRuns k-way merges newest-first runs into one, concatenating each
// key's versions oldest-run-first so batches stay ascending, and drops
// versions below the prune floor (keeping each key's newest version at
// or below it — the same rule PruneShard applies synchronously, here
// reclaiming cross-run slack). Returns nil if everything merged away.
func mergeRuns(src []*run, floor int64) *run {
	cursors := make([]int, len(src))
	var entries []entry
	for {
		minKey := ""
		found := false
		for i, r := range src {
			if cursors[i] >= len(r.entries) {
				continue
			}
			if k := r.entries[cursors[i]].key; !found || k < minKey {
				minKey, found = k, true
			}
		}
		if !found {
			break
		}
		var vs []version
		for i := len(src) - 1; i >= 0; i-- {
			r := src[i]
			if cursors[i] < len(r.entries) && r.entries[cursors[i]].key == minKey {
				vs = append(vs, r.entries[cursors[i]].versions...)
				cursors[i]++
			}
		}
		if j := sort.Search(len(vs), func(j int) bool { return vs[j].batch > floor }); j > 1 {
			vs = vs[j-1:]
		}
		entries = append(entries, entry{key: minKey, versions: vs})
	}
	if len(entries) == 0 {
		return nil
	}
	return newRun(entries)
}
