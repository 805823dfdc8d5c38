package main

import (
	"fmt"
	"maps"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"transedge/internal/core"
	"transedge/internal/merkle"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations the value rests on (0 = a counter
	// or a single measurement).
	Samples int `json:"samples,omitempty"`
}

// runResult is one run of one workload: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Correct  bool   `json:"correct"`
	// Every attempted operation ends as exactly one of the three.
	Attempted int64                  `json:"attempted"`
	Committed int64                  `json:"committed"`
	Aborted   int64                  `json:"aborted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Notes carry oracle violations, failure causes and flags (a run that
	// measured the generator or the simulator rather than the program).
	Notes []string `json:"notes,omitempty"`
}

// runOptions are the knobs of one run that are not part of the workload.
type runOptions struct {
	Seed     int64
	Traced   bool
	Work     string // scratch directory (DataDirs, probe WAL)
	TraceDir string // where trace-<workload>.jsonl goes ("" = nowhere)
	// Probes supplies stand-alone probe results to a traced run; nil makes
	// the run measure them itself.
	Probes probeOut
}

// runData is everything a run collected, before it is boiled down.
type runData struct {
	spec   *Spec
	traced bool

	setups []time.Duration
	warm   *phaseResult
	phases []*phaseResult
	spans  []span
	tails  []string // which percentile each reported tail used

	heapMB      float64
	auditErr    error
	restartTook time.Duration
	restartErr  error

	// Counters of the measured deployment, boot to stop.
	nodes      core.Metrics // summed over every replica incarnation
	viewsMax   int64        // most view changes any one replica entered
	logLenMax  int
	sent       int64
	dropped    int64
	roRequests int64
	bftMsgs    int64
	twoPCMsgs  int64
	hashOps    uint64
	certVerifs int64
	retries    int64 // attempts repeated after a timeout or an unrepaired snapshot
	proofBytes int64
	walSyncs   int64
	walBytes   int64

	// Process resources, boot to the end of the last phase.
	cpu           time.Duration
	allocBytes    uint64
	gcPause       time.Duration
	goroutinesMax int
}

func (d *runData) phase(name string) *phaseResult {
	for _, p := range d.phases {
		if p.phase.Name == name {
			return p
		}
	}
	return nil
}

// everyPhase lists warm-up and phases: every operation the run attempted.
func (d *runData) everyPhase() []*phaseResult {
	return append([]*phaseResult{d.warm}, d.phases...)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeapMB is HeapAlloc after a forced collection: steady-state
// retention rather than transient garbage.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// minFaultSeconds keeps the crash schedule meaningful at smoke scale: a
// view change plus a state transfer must fit between two crashes.
const minFaultSeconds = 3.0

func phaseDuration(ph Phase, sc Scale) time.Duration {
	secs := ph.Frac * sc.Seconds
	if ph.Faults && secs < minFaultSeconds {
		secs = minFaultSeconds
	}
	return time.Duration(secs * float64(time.Second))
}

// addMetrics sums core.Metrics field by field (all fields are int64).
func addMetrics(dst *core.Metrics, src core.Metrics) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		d.Field(i).SetInt(d.Field(i).Int() + s.Field(i).Int())
	}
}

// runWorkload performs one run of a workload and boils it down.
func runWorkload(spec *Spec, sc Scale, opt runOptions) (*runResult, error) {
	d := &runData{spec: spec, traced: opt.Traced}

	// Set up several times and keep the last deployment: setup_s is the
	// median, so one slow set-up does not decide it.
	repeats := sc.SetupRepeats
	if opt.Traced {
		repeats = 1
	}
	var e *env
	for i := 0; i < repeats; i++ {
		if e != nil {
			e.close()
		}
		var took time.Duration
		var err error
		if e, d.warm, took, err = setUp(spec, sc, opt.Seed, opt.Traced, opt.Work); err != nil {
			return nil, err
		}
		d.setups = append(d.setups, took)
	}
	defer e.close()

	var tr *tracer
	plan := spec.Phases
	if opt.Traced {
		tr, plan = newTracer(spec.Name), spec.TracedPhases
	}

	stopSampling := sampleGoroutines(&d.goroutinesMax, opt.Traced)
	for i, ph := range plan {
		phaseTracer := tr
		if ph.Name == phasePacedRef {
			phaseTracer = nil
		}
		d.phases = append(d.phases, e.runPhase(ph, i, phaseDuration(ph, sc), phaseTracer))
	}
	stopSampling()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d.cpu = cpuTime() - e.cpuAtBoot
	d.allocBytes = ms.TotalAlloc - e.allocAtBoot
	d.gcPause = time.Duration(ms.PauseTotalNs - e.gcPauseAtBoot)

	state, auditErr := e.audit()
	d.auditErr = auditErr
	d.heapMB = liveHeapMB()
	d.hashOps = merkle.HashOps() - e.hashOpsAtBoot
	e.collect(d)
	if spec.Durable && auditErr == nil {
		d.restartTook, d.restartErr = e.coldRestart(state)
	}
	if tr != nil {
		d.spans = tr.snapshot()
		if opt.TraceDir != "" {
			if err := writeTrace(filepath.Join(opt.TraceDir, "trace-"+spec.Name+".jsonl"), spec.Name, d.spans); err != nil {
				return nil, err
			}
		}
	}

	res := d.account(opt.Seed)
	if !opt.Traced {
		res.Metrics = d.endToEnd()
		return res, nil
	}
	probes := opt.Probes
	if probes == nil {
		var err error
		if probes, err = runProbes(sc, opt.Work); err != nil {
			return nil, err
		}
	}
	res.Metrics = d.perLayer(probes)
	res.Notes = append(res.Notes, d.flags(res.Metrics)...)
	return res, nil
}

// sampleGoroutines tracks the goroutine count's peak until stopped.
func sampleGoroutines(peak *int, on bool) (stop func()) {
	if !on {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				*peak = max(*peak, runtime.NumGoroutine())
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// collect stops the measured deployment and gathers its counters. Node
// metrics are owned by the event loops, so they are read only after Stop.
func (e *env) collect(d *runData) {
	for _, cn := range e.conns {
		c := cn.sess.Client()
		d.certVerifs += c.CertVerifications()
		_, bytes := c.ProofStats()
		d.proofBytes += bytes
	}
	d.retries = e.retries.Load()
	d.walSyncs = e.retiredSyncs
	for c := 0; c < e.spec.Clusters; c++ {
		for r := 0; r < e.replicas(); r++ {
			if w := e.node(c, r).WAL(); w != nil {
				d.walSyncs += w.SyncCount()
			}
		}
	}
	e.sys.Stop()
	e.retireAll()
	if e.dataDir != "" {
		d.walBytes = e.walBytes()
	}
	for c := 0; c < e.spec.Clusters; c++ {
		for r := 0; r < e.replicas(); r++ {
			_, n := e.node(c, r).LogWindow()
			d.logLenMax = max(d.logLenMax, n)
		}
	}
	for _, m := range e.retired {
		addMetrics(&d.nodes, m)
		d.viewsMax = max(d.viewsMax, m.ViewChanges)
	}
	d.sent = e.sys.Net.Stats.Sent.Load()
	d.dropped = e.sys.Net.Stats.Dropped.Load()
	if e.msgs != nil {
		d.roRequests = e.msgs.roRequests.Load()
		d.bftMsgs = e.msgs.bft.Load()
		d.twoPCMsgs = e.msgs.twoPC.Load()
	}
}

// account classifies every attempted operation and runs the verdict.
func (d *runData) account(seed int64) *runResult {
	res := &runResult{Workload: d.spec.Name, Seed: seed, Traced: d.traced, Correct: true}
	causes := make(map[string]int)
	for _, p := range d.everyPhase() {
		var byOutcome [3]int64
		for _, s := range p.samples {
			byOutcome[s.out]++
		}
		byOutcome[outFailed] += p.unanswered
		res.Attempted += p.issued
		res.Committed += byOutcome[outCommitted]
		res.Aborted += byOutcome[outAborted]
		res.Failed += byOutcome[outFailed]
		res.Notes = append(res.Notes, fmt.Sprintf("phase %s: attempted=%d committed=%d aborted=%d failed=%d",
			p.phase.Name, p.issued, byOutcome[outCommitted], byOutcome[outAborted], byOutcome[outFailed]))
		if p.unanswered > 0 {
			causes[fmt.Sprintf("unanswered when phase %s closed", p.phase.Name)] += int(p.unanswered)
		}
		for cause, n := range p.errs {
			causes[cause] += n
		}
		for _, v := range p.violations {
			res.Correct = false
			res.Notes = append(res.Notes, v)
		}
	}
	for _, err := range []error{d.auditErr, d.restartErr} {
		if err != nil {
			res.Correct = false
			res.Notes = append(res.Notes, err.Error())
		}
	}
	keys := slices.Sorted(maps.Keys(causes))
	for i, c := range keys {
		if i == 8 {
			res.Notes = append(res.Notes, fmt.Sprintf("... and %d more failure causes", len(keys)-i))
			break
		}
		res.Notes = append(res.Notes, fmt.Sprintf("failed x%d: %s", causes[c], c))
	}
	return res
}
