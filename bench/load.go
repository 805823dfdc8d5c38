package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"transedge/internal/client"
)

// Outcome is how an attempted operation ended. Every operation ends as
// exactly one of these; nothing is dropped silently.
type Outcome uint8

const (
	outCommitted Outcome = iota
	// outAborted is an OCC or 2PC abort: a normal outcome of optimistic
	// concurrency control, reported as core.abort_ratio.
	outAborted
	// outFailed is a timeout, a transport or verification error, an oracle
	// violation, or an operation still unanswered when its phase closed.
	outFailed
)

func (o Outcome) String() string {
	return [...]string{"committed", "aborted", "failed"}[o]
}

// errOracle marks a failure found by the benchmark's own correctness
// check rather than reported by the system.
var errOracle = errors.New("oracle violation")

// sample is one finished operation.
type sample struct {
	class   Class
	cluster int32
	sched   time.Time // scheduled arrival (paced) or start (closed loop)
	done    time.Time
	out     Outcome
	rounds  int // snapshot read rounds (classRO only)
}

func (s sample) latency() time.Duration { return s.done.Sub(s.sched) }

// recorder collects a phase's samples. After close, late results are
// dropped: their operations were already counted as unanswered.
type recorder struct {
	mu         sync.Mutex
	closed     bool
	samples    []sample
	violations []string       // oracle violations, verbatim
	errs       map[string]int // failure causes, for diagnostics
}

func (r *recorder) add(s sample, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.samples = append(r.samples, s)
	if err != nil && s.out == outFailed {
		if errors.Is(err, errOracle) {
			r.violations = append(r.violations, err.Error())
		}
		if r.errs == nil {
			r.errs = make(map[string]int)
		}
		r.errs[err.Error()]++
	}
}

func (r *recorder) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
}

// crashRecord is one injected leader crash and its aftermath.
type crashRecord struct {
	at        time.Time
	restartAt time.Time
	catchup   time.Duration // restarted replica back within one batch of its leader
	caughtUp  bool
}

// phaseResult is everything one phase measured.
type phaseResult struct {
	phase      Phase
	start, end time.Time
	samples    []sample
	issued     int64 // operations started
	unanswered int64 // started but not finished when the phase closed
	violations []string
	errs       map[string]int

	offered     int64           // paced arrivals scheduled
	lateness    []time.Duration // paced dispatch time minus scheduled arrival
	inflightMax int64           // peak outstanding paced operations of one generator
	genTime     time.Duration   // time spent generating inputs
	crashes     []crashRecord
}

func (p *phaseResult) seconds() float64 { return p.end.Sub(p.start).Seconds() }

// conn is one generator's connection to the system: a single session for
// verified reads, plus the clients its read-write transactions run on.
//
// The issue asks for exactly one client object per generator. Reads honour
// that. Transactions cannot: client.Txn.Commit draws from an unsynchronised
// math/rand source, so two commits in flight on one Client race (and can
// panic inside math/rand). Fixing the client is outside this PR's write
// set, so each in-flight transaction borrows a Client from a LIFO free
// list; LIFO keeps the set as small as the concurrency allows and reuses
// the clients that most recently learnt which replica answers.
type conn struct {
	sess *client.Session
	mu   sync.Mutex
	free []*client.Client
	next uint32
	mk   func(id uint32) *client.Client
}

func (c *conn) borrow() *client.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.free); n > 0 {
		cl := c.free[n-1]
		c.free = c.free[:n-1]
		return cl
	}
	c.next++
	return c.mk(c.next)
}

func (c *conn) giveBack(cl *client.Client) {
	c.mu.Lock()
	c.free = append(c.free, cl)
	c.mu.Unlock()
}

// exec runs one operation against the system and classifies its outcome.
// id is the operation's root span (unused when tr is nil).
func (e *env) exec(cn *conn, op *opInput, tr *tracer, id uint64) (Outcome, int, error) {
	// An attempt that times out, or a snapshot read that gives up on its
	// dependency repair, is retried from scratch, as an application would,
	// until opDeadline: the operation fails only if no attempt gets an
	// answer by then. A timed-out commit may have taken effect;
	// transferring again keeps every total, so the oracle holds.
	retryable := func(err error, start time.Time) bool {
		return (errors.Is(err, client.ErrTimeout) || errors.Is(err, client.ErrInconsistent)) &&
			time.Since(start) < opDeadline
	}
	if op.class == classRO {
		for start := time.Now(); ; e.retries.Add(1) {
			t0 := tr.begin()
			res, err := cn.sess.ReadOnly(op.reads)
			tr.end(id, spanRO, t0)
			if err != nil {
				if retryable(err, start) {
					continue
				}
				return outFailed, 0, err
			}
			if e.spec.Pairs {
				if err := checkPairs(op.reads, res.Values); err != nil {
					return outFailed, res.Rounds, fmt.Errorf("%w: %v", errOracle, err)
				}
			}
			return outCommitted, res.Rounds, nil
		}
	}

	cl := cn.borrow()
	defer cn.giveBack(cl)
	for start := time.Now(); ; e.retries.Add(1) {
		out, err := e.transfer(cl, op, tr, id)
		if out != outFailed || !retryable(err, start) {
			return out, 0, err
		}
	}
}

// opDeadline bounds the retries of one operation.
const opDeadline = 10 * time.Second

// transfer is one attempt at a read-write transfer.
func (e *env) transfer(cl *client.Client, op *opInput, tr *tracer, id uint64) (Outcome, error) {
	txn := cl.Begin()
	balances := make([]int64, len(op.writes))
	for i, k := range op.reads {
		t0 := tr.begin()
		v, err := txn.Read(k)
		tr.end(id, spanRead, t0)
		if err != nil {
			return outFailed, err
		}
		if i < len(op.writes) { // writes are a prefix of reads
			if balances[i], err = decodeBalance(v); err != nil {
				return outFailed, fmt.Errorf("%w: read %s: %v", errOracle, k, err)
			}
		}
	}
	for i, v := range transferValues(balances) {
		txn.Write(op.writes[i], v)
	}
	t0 := tr.begin()
	err := txn.Commit()
	tr.end(id, spanCommit, t0)
	switch {
	case err == nil:
		return outCommitted, nil
	case errors.Is(err, client.ErrAborted):
		return outAborted, nil
	default:
		return outFailed, err
	}
}

// seedFor derives independent generator seeds from the run seed
// (splitmix64 over the coordinates), so one --seed fixes every input.
func seedFor(seed int64, coords ...int) int64 {
	x := uint64(seed)
	for _, c := range coords {
		x += 0x9e3779b97f4a7c15 + uint64(c)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}

// drainLimit bounds the wait for in-flight operations after a phase ends;
// whatever is still unanswered then is counted as failed.
const drainLimit = 5 * time.Second

// runPhase drives one phase: every generator runs its share of the paced
// stream and of the closed loop, then the phase drains.
func (e *env) runPhase(ph Phase, idx int, dur time.Duration, tr *tracer) *phaseResult {
	var (
		rec         recorder
		issued      atomic.Int64
		offered     atomic.Int64
		genNanos    atomic.Int64
		wg          sync.WaitGroup
		lateMu      sync.Mutex // guards lateness and inflightMax
		lateness    []time.Duration
		inflightMax int64
	)
	res := &phaseResult{phase: ph}
	res.start = time.Now()
	res.end = res.start.Add(dur)

	// runOp executes one operation and records it; sched is the instant
	// its latency is clocked from.
	runOp := func(cn *conn, op opInput, sched time.Time) {
		var id uint64
		var started time.Time
		if tr != nil {
			id, started = tr.id(), time.Now()
		}
		out, rounds, err := e.execOp(cn, &op, tr, id)
		done := time.Now()
		if tr != nil {
			tr.add(span{ID: id, Op: id, Name: spanOp, Start: tr.since(started), End: tr.since(done),
				Class: op.class.String(), Sched: tr.since(sched), Outcome: out.String()})
		}
		rec.add(sample{class: op.class, cluster: op.cluster, sched: sched, done: done, out: out, rounds: rounds}, err)
	}

	gens := len(e.conns)
	for g := 0; g < gens; g++ {
		cn := e.conns[g]
		if ph.PacedRate > 0 {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				gen := newOpGen(e.spec, e.l, e.ranks, seedFor(e.seed, idx, g, 0))
				window := make(chan struct{}, e.window)
				var outstanding, peak int64
				var late []time.Duration
				rate := ph.PacedRate / float64(gens)
				next := res.start
				for {
					next = next.Add(time.Duration(gen.rng.ExpFloat64() / rate * float64(time.Second)))
					if next.After(res.end) {
						break
					}
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					t0 := time.Now()
					op := gen.next(ph.PacedMix)
					now := time.Now()
					genNanos.Add(int64(now.Sub(t0)))
					late = append(late, t0.Sub(next))
					offered.Add(1)
					issued.Add(1)
					if n := atomic.AddInt64(&outstanding, 1); n > peak {
						peak = n
					}
					wg.Add(1)
					go func(sched time.Time) {
						defer wg.Done()
						// The slot is taken here, off the scheduling loop:
						// a full window delays this request, never the
						// arrivals behind it, and the wait is in its latency.
						window <- struct{}{}
						runOp(cn, op, sched)
						<-window
						atomic.AddInt64(&outstanding, -1)
					}(next)
				}
				lateMu.Lock()
				lateness = append(lateness, late...)
				inflightMax = max(inflightMax, peak)
				lateMu.Unlock()
			}(g)
		}
		// The closed loop's window is split across the generators.
		workers := ph.Window / gens
		if g < ph.Window%gens {
			workers++
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(g, w int) {
				defer wg.Done()
				gen := newOpGen(e.spec, e.l, e.ranks, seedFor(e.seed, idx, g, 1+w))
				for {
					t0 := time.Now()
					if !t0.Before(res.end) {
						return
					}
					op := gen.next(ph.WindowMix)
					sched := time.Now()
					genNanos.Add(int64(sched.Sub(t0)))
					issued.Add(1)
					runOp(cn, op, sched)
				}
			}(g, w)
		}
	}
	if ph.Faults {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.crashes = e.runFaults(res.start, dur)
		}()
	}

	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(dur + drainLimit):
	}
	rec.close()

	res.samples = rec.samples
	res.violations = rec.violations
	res.errs = rec.errs
	res.issued = issued.Load()
	res.unanswered = res.issued - int64(len(res.samples))
	res.offered = offered.Load()
	res.genTime = time.Duration(genNanos.Load())
	lateMu.Lock()
	res.lateness, res.inflightMax = lateness, inflightMax
	lateMu.Unlock()
	return res
}

// warmUp runs n operations of the mix on a small closed loop, so root
// caches, connection free lists and the leaders' pipelines are warm before
// anything is timed. Its operations are accounted like any others.
func (e *env) warmUp(n int, mix Mix) *phaseResult {
	var (
		rec    recorder
		issued atomic.Int64
		wg     sync.WaitGroup
	)
	res := &phaseResult{phase: Phase{Name: "warm-up"}, start: time.Now()}
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cn := e.conns[w%len(e.conns)]
			gen := newOpGen(e.spec, e.l, e.ranks, seedFor(e.seed, -1, w))
			for issued.Add(1) <= int64(n) {
				op := gen.next(mix)
				sched := time.Now()
				out, rounds, err := e.exec(cn, &op, nil, 0)
				rec.add(sample{class: op.class, cluster: op.cluster, sched: sched, done: time.Now(), out: out, rounds: rounds}, err)
			}
		}(w)
	}
	wg.Wait()
	res.end = time.Now()
	res.samples, res.violations, res.errs = rec.samples, rec.violations, rec.errs
	res.issued = int64(len(rec.samples))
	return res
}
