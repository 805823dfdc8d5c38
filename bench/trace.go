package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. The root span covers one operation from its scheduled
// arrival to its recorded outcome; the children cover the benchmark's
// calls into internal/client. Spans inside internal/* are a later issue.
const (
	spanOp     = "op"
	spanRO     = "Session.ReadOnly"
	spanRead   = "Txn.Read"
	spanCommit = "Txn.Commit"
)

// span is one traced interval. Times are nanoseconds since the tracer's
// epoch. Root spans (Parent == 0) also carry the operation's class, its
// scheduled arrival and its outcome; spans of one operation share Op.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Op      uint64 `json:"op"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Class   string `json:"class,omitempty"`
	Sched   int64  `json:"sched_ns,omitempty"`
	Outcome string `json:"outcome,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	workload string
	epoch    time.Time
	nextID   atomic.Uint64
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

func (t *tracer) id() uint64 { return t.nextID.Add(1) }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// begin and end bracket one call made on behalf of operation op and record
// it as a child span; on a nil tracer neither reads the clock.
func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) end(op uint64, name string, start time.Time) {
	if t == nil {
		return
	}
	t.add(span{ID: t.id(), Parent: op, Op: op, Name: name, Start: t.since(start), End: t.since(time.Now())})
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (children may overlap each other
// and may stick out of the parent; only covered time inside it counts).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanDurations returns the durations (µs) of every span with the given
// name, restricted to operations of class cl ("" = any class).
func spanDurations(spans []span, name, cl string) []float64 {
	classOf := make(map[uint64]string)
	for _, s := range spans {
		if s.Parent == 0 {
			classOf[s.Op] = s.Class
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name && (cl == "" || classOf[s.Op] == cl) {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// writeTrace dumps the spans as one JSON object per line.
func writeTrace(path, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			Workload string `json:"workload"`
			span
		}{workload, s}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write trace %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
