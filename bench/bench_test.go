package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json, whose keys the contract fixes.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesCatalogue keeps BENCHMARK.json, the workload
// specs and the metric catalogue in step, within the contract's limits.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	f := readBenchmarkFile(t)
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the binary's default is %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
	if n := len(f.Workloads); n < 2 || n > 8 || n != len(specs()) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", n, len(specs()))
	}
	seen := make(map[string]bool)
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, s := range specs() {
		w := f.Workloads[i]
		unique(w.Name)
		if w.Name != s.Name || w.Why != s.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the spec has %q / %q", i, w.Name, w.Why, s.Name, s.Why)
		}
		if len(s.Why) > 200 || strings.Contains(s.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", s.Name, len(s.Why))
		}
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 || n != len(e2eCatalog) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", n, len(e2eCatalog))
	}
	hasSetup := false
	for i, m := range e2eCatalog {
		g := f.EndToEnd[i]
		unique(g.Name)
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the catalogue has %+v", i, g, m)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q or bound %v outside the contract", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(f.PerLayer); n < 1 || n > 128 || n != len(layerCatalog) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue", n, len(layerCatalog))
	}
	for i, m := range layerCatalog {
		g := f.PerLayer[i]
		unique(g.Name)
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the catalogue has %s %s %s", i, g, m.Name, m.Unit, m.Better)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %s: unit %q outside the contract", m.Name, m.Unit)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at smoke scale, untraced and
// traced: every metric of the catalogue must come out exactly once per
// workload with its unit, the oracle must pass, nothing may fail, and the
// probes' exact counts must repeat bit-for-bit.
func TestSmokeAllWorkloads(t *testing.T) {
	sc, work := shortScale(), t.TempDir()
	probes, err := runProbes(sc, work)
	if err != nil {
		t.Fatal(err)
	}
	again, err := runProbes(sc, work)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range layerCatalog {
		if m.Exact && probes[m.Name] != again[m.Name] {
			t.Errorf("exact count %s did not repeat: %v then %v", m.Name, probes[m.Name], again[m.Name])
		}
		if m.Exact && probes[m.Name] <= 0 {
			t.Errorf("exact count %s = %v", m.Name, probes[m.Name])
		}
		if _, ok := probes[m.Name]; m.Source == srcProbe && !ok {
			t.Errorf("probe metric %s was not measured", m.Name)
		}
	}

	for _, spec := range specs() {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(spec, sc, runOptions{Seed: 7, Traced: traced, Work: work, TraceDir: work, Probes: probes})
			if err != nil {
				t.Fatalf("%s traced=%t: %v", spec.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%t: correct=%t failed=%d notes=%v", spec.Name, traced, res.Correct, res.Failed, res.Notes)
			}
			if res.Attempted < 1 || res.Attempted != res.Committed+res.Aborted+res.Failed {
				t.Errorf("%s traced=%t: attempted=%d but committed+aborted+failed=%d", spec.Name, traced,
					res.Attempted, res.Committed+res.Aborted+res.Failed)
			}
			want := make(map[string]string)
			if traced {
				for _, m := range layerCatalog {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range e2eCatalog {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", spec.Name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: metric %s missing", spec.Name, traced, name)
				case got.Unit != unit:
					t.Errorf("%s: metric %s has unit %q, want %q", spec.Name, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s = %v", spec.Name, name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", spec.Name, name, got.Value)
				}
			}
		}
		if _, err := os.Stat(work + "/trace-" + spec.Name + ".jsonl"); err != nil {
			t.Errorf("%s: traced run wrote no trace file: %v", spec.Name, err)
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {0, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v (at least ten samples beyond it)", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
	if got := percentile(sorted, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// which the contract's acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 40, 20, 30})
	if q1 != 12.5 || q3 != 37.5 {
		t.Errorf("quartiles(10,20,30,40) = %v, %v; Python gives 12.5, 37.5", q1, q3)
	}
}

// TestPacedP50IsTheQuietLevel: seconds slowed from outside, however many
// short of nine in ten, must not move the reported median latency.
func TestPacedP50IsTheQuietLevel(t *testing.T) {
	start := time.Now()
	p := &phaseResult{start: start, end: start.Add(20 * time.Second)}
	for sec := 0; sec < 20; sec++ {
		lat := 10 * time.Millisecond
		if sec%5 != 0 { // 16 of 20 seconds run three times slower
			lat = 30 * time.Millisecond
		}
		for i := 0; i < 100; i++ {
			sched := start.Add(time.Duration(sec)*time.Second + time.Duration(i)*10*time.Millisecond)
			p.samples = append(p.samples, sample{class: classLocal, sched: sched, done: sched.Add(lat)})
		}
	}
	got, n := pacedP50(p, isClass(classLocal))
	if got != 10 || n != 2000 {
		t.Errorf("pacedP50 = %v ms over %d samples, want 10 ms over 2000", got, n)
	}
	if q := quantile([]float64{4, 1, 3, 2, 5}, 25); q != 2 {
		t.Errorf("quantile(1..5, 25) = %v, want 2", q)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: spanOp, Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: spanRead, Start: 10, End: 30},
		{ID: 3, Parent: 1, Op: 1, Name: spanRead, Start: 20, End: 50},      // overlaps span 2
		{ID: 4, Parent: 1, Op: 1, Name: spanCommit, Start: 90, End: 120},   // sticks out of the parent
		{ID: 5, Parent: 4, Op: 1, Name: "grandchild", Start: 95, End: 100}, // not a child of span 1
	}
	self := selfTimes(spans)
	// Children cover [10,50) and [90,100) of the root: 50 of its 100.
	if self[1] != 50 {
		t.Errorf("root self time = %d, want 50", self[1])
	}
	if self[2] != 20 || self[3] != 30 {
		t.Errorf("leaf self times = %d, %d; want their durations 20, 30", self[2], self[3])
	}
	if self[4] != 25 {
		t.Errorf("self time of span 4 = %d, want 30 - 5", self[4])
	}
}

// TestOpenLoopClocksFromScheduledArrival drives the paced scheduler with a
// slow stub operation and a window of one: arrivals must keep their
// schedule (the generator is not throttled), and each latency must count
// the wait for the window from the operation's scheduled arrival.
func TestOpenLoopClocksFromScheduledArrival(t *testing.T) {
	const service = 20 * time.Millisecond
	spec := specByName("rw-local")
	e := &env{spec: spec, seed: 1, window: 1, l: newLayout(200, spec.Clusters, false), conns: []*conn{{}}}
	e.execOp = func(*conn, *opInput, *tracer, uint64) (Outcome, int, error) {
		time.Sleep(service)
		return outCommitted, 0, nil
	}
	// 200 arrivals/s for 0.4 s against a server that completes 50/s.
	ph := Phase{Name: phasePaced, PacedRate: 200, PacedMix: onlyLocal}
	res := e.runPhase(ph, 0, 400*time.Millisecond, nil)

	if res.offered < 50 || res.offered > 120 {
		t.Fatalf("offered %d arrivals in 0.4 s at 200/s: the schedule was throttled or ran away", res.offered)
	}
	if int64(len(res.samples)) != res.offered || res.unanswered != 0 {
		t.Fatalf("%d samples for %d arrivals (%d unanswered)", len(res.samples), res.offered, res.unanswered)
	}
	if res.inflightMax <= int64(e.window) {
		t.Errorf("peak outstanding %d: a backlog should build behind a window of %d", res.inflightMax, e.window)
	}
	var worst time.Duration
	for _, s := range res.samples {
		worst = max(worst, s.latency())
		if s.latency() < service {
			t.Errorf("latency %v below the service time %v", s.latency(), service)
		}
	}
	// The last arrivals wait for nearly the whole backlog to drain.
	if floor := time.Duration(res.offered/2) * service; worst < floor {
		t.Errorf("worst latency %v: queueing behind the window is not counted (want at least %v)", worst, floor)
	}
	late := sortedMillis(res.lateness)
	if p := percentile(late, 50); p > 5 {
		t.Errorf("median generator lateness %.2f ms: the scheduling loop blocked on the window", p)
	}
}

func TestOracleCatchesFracturedPair(t *testing.T) {
	good := map[string][]byte{
		"a": encodeBalance(initialBalance - 3), "b": encodeBalance(initialBalance + 3),
	}
	if err := checkPairs([]string{"a", "b"}, good); err != nil {
		t.Errorf("a conserved pair was rejected: %v", err)
	}
	fractured := map[string][]byte{
		"a": encodeBalance(initialBalance - 3), "b": encodeBalance(initialBalance),
	}
	if err := checkPairs([]string{"a", "b"}, fractured); err == nil {
		t.Error("a pair whose sum changed was accepted")
	}
	if err := checkPairs([]string{"a", "b"}, map[string][]byte{"a": encodeBalance(1)}); err == nil {
		t.Error("a pair with a missing member was accepted")
	}

	keys := []string{"a", "b", "c"}
	state := map[string][]byte{"a": encodeBalance(initialBalance), "b": encodeBalance(initialBalance + 1), "c": encodeBalance(initialBalance - 1)}
	if err := checkTotal(keys, state); err != nil {
		t.Errorf("a conserved keyspace was rejected: %v", err)
	}
	state["c"] = encodeBalance(initialBalance)
	if err := checkTotal(keys, state); err == nil {
		t.Error("a keyspace whose total changed was accepted")
	}
}

func TestTransfersConserveTheTotal(t *testing.T) {
	for _, balances := range [][]int64{{10, 0}, {5, 7, 9}, {1, 0, 0}, {0, 4}} {
		var before, after int64
		for _, b := range balances {
			before += b
		}
		for _, v := range transferValues(balances) {
			b, err := decodeBalance(v)
			if err != nil || b < 0 || len(v) != valueSize {
				t.Fatalf("transferValues(%v) wrote %q (%v)", balances, v[:balanceDigits], err)
			}
			after += b
		}
		if before != after {
			t.Errorf("transferValues(%v) changed the total from %d to %d", balances, before, after)
		}
	}
}

// TestSeedFixesInputs: the same seed gives the same operations, another
// seed gives others, and pair workloads only ever touch whole pairs.
func TestSeedFixesInputs(t *testing.T) {
	spec := specByName("mixed-2pc")
	l := newLayout(shortKeys, spec.Clusters, true)
	ranks := zipfTables(spec, l)
	draw := func(seed int64) []opInput {
		g := newOpGen(spec, l, ranks, seedFor(seed, 0, 0, 0))
		ops := make([]opInput, 200)
		for i := range ops {
			ops[i] = g.next(spec.Phases[0].PacedMix)
		}
		return ops
	}
	a, b, c := draw(1), draw(1), draw(2)
	same := func(x, y []opInput) bool {
		for i := range x {
			if x[i].class != y[i].class || strings.Join(x[i].reads, ",") != strings.Join(y[i].reads, ",") {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed gave different operations")
	}
	if same(a, c) {
		t.Error("different seeds gave the same operations")
	}
	part := make(map[string]int)
	for c, ks := range l.byCluster {
		for _, k := range ks {
			part[k] = c
		}
	}
	for _, op := range a {
		switch op.class {
		case classRO:
			if len(op.reads) != 2*spec.Clusters {
				t.Fatalf("pair read of %d keys, want %d", len(op.reads), 2*spec.Clusters)
			}
		case classLocal:
			if part[op.reads[0]] != part[op.reads[1]] {
				t.Fatalf("local transfer %v spans clusters", op.reads)
			}
		case classDist:
			if part[op.reads[0]] == part[op.reads[1]] {
				t.Fatalf("distributed transfer %v stays in one cluster", op.reads)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01, v, v} }
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"latency up 30 %", steady(10), steady(13), "lower", verdictWorse},
		{"latency down 30 %", steady(10), steady(7), "lower", verdictBetter},
		{"latency up 3 %", steady(10), steady(10.3), "lower", verdictWithin},
		{"throughput down 30 %", steady(1000), steady(700), "higher", verdictWorse},
		{"throughput up 30 %", steady(1000), steady(1300), "higher", verdictBetter},
		{"noisy parent", []float64{5, 10, 15, 20, 10}, steady(13), "lower", verdictUnresolved},
	} {
		if got, _ := judge(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
