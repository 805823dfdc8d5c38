// Command bench is the repository's one repeatable benchmark: four named
// workloads, end-to-end metrics with regression bounds, and a per-layer
// budget measured from outside the program. See README.md.
//
// The benchmark contract runs it as
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads one JSON object from the last line of standard output. Run by
// hand, the same binary runs every workload, repeats, and compares:
//
//	bench                          all workloads, untraced then traced
//	bench -repeat 10 -out a.json   ten rounds, medians and quartiles
//	bench -compare a.json b.json   apply the bounds; exit 1 on any "worse"
//	bench -short                   smoke scale, results non-comparable
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 22

func main() {
	var (
		workload = flag.String("workload", "all", "workload `name`, or all")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured seconds per run, split across the workload's phases")
		trace    = flag.Int("trace", -1, "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics), unset = both")
		traceDir = flag.String("tracedir", "", "write trace-<workload>.jsonl of each traced run into this `dir`")
		outPath  = flag.String("out", "", "write every run's results, with an environment stamp, to this JSON `file`")
		repeat   = flag.Int("repeat", 1, "run the selection this many times and print median and quartiles per metric")
		baseline = flag.String("baseline", "", "write the per-metric median, quartiles and spread of a -repeat run to this JSON `file`")
		short    = flag.Bool("short", false, "smoke scale (2 s runs, 2 000 keys); results are marked non-comparable")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments: bench -compare a.json b.json")
		work     = flag.String("work", filepath.Join(".bench_build", "work"), "scratch `dir` for data directories")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as the specs and the metric catalogue define it, and exit")
	)
	flag.Parse()

	if *manifest {
		printManifest()
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.json b.json")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err.Error())
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	var selected []*Spec
	if *workload == "all" {
		selected = specs()
	} else if s := specByName(*workload); s != nil {
		selected = []*Spec{s}
	} else {
		fatal(fmt.Sprintf("unknown workload %q (have: %s, all)", *workload, strings.Join(specNames(), ", ")))
	}
	var passes []bool // traced?
	switch *trace {
	case -1:
		passes = []bool{false, true}
	case 0:
		passes = []bool{false}
	case 1:
		passes = []bool{true}
	default:
		fatal("-trace takes 0 or 1")
	}
	sc := fullScale(*seconds)
	if *short {
		sc = shortScale()
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal(err.Error())
		}
	}

	file := resultFile{Env: environment(), Comparable: !*short && *seconds == defaultSeconds}
	ok := true
	for round := 0; round < *repeat; round++ {
		// The probes do not depend on the workload: with several traced
		// runs in one invocation they are measured once per round.
		var probes probeOut
		for _, traced := range passes {
			for _, spec := range selected {
				opt := runOptions{Seed: *seed, Traced: traced, Work: *work, TraceDir: *traceDir}
				if traced && len(selected) > 1 {
					if probes == nil {
						var err error
						if probes, err = runProbes(sc, *work); err != nil {
							fatal(err.Error())
						}
					}
					opt.Probes = probes
				}
				res, err := runWorkload(spec, sc, opt)
				if err != nil {
					fatal(fmt.Sprintf("%s: %v", spec.Name, err))
				}
				printRun(res)
				file.Runs = append(file.Runs, res)
				ok = ok && res.Correct
			}
		}
	}
	if *repeat > 1 {
		printSummary(os.Stdout, file.Runs)
	}
	if *outPath != "" {
		if err := file.write(*outPath); err != nil {
			fatal(err.Error())
		}
	}
	if *baseline != "" {
		if err := writeBaseline(*baseline, &file); err != nil {
			fatal(err.Error())
		}
	}
	// The contract's result: the last line of a single run's output.
	if len(file.Runs) == 1 {
		printContractLine(file.Runs[0])
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: correctness oracle failed; see the notes above")
		os.Exit(1)
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(2)
}

func specNames() []string {
	var out []string
	for _, s := range specs() {
		out = append(out, s.Name)
	}
	return out
}

// printRun prints every metric of a run as "workload metric value unit".
func printRun(r *runResult) {
	for _, name := range slices.Sorted(maps.Keys(r.Metrics)) {
		m := r.Metrics[name]
		line := fmt.Sprintf("%s %s %.6g %s", r.Workload, name, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%d", m.Samples)
		}
		fmt.Println(line)
	}
	pct := 0.0
	if r.Attempted > 0 {
		pct = 100 * float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("%s operations attempted=%d committed=%d aborted=%d failed=%d failed_pct=%.4g correct=%t\n",
		r.Workload, r.Attempted, r.Committed, r.Aborted, r.Failed, pct, r.Correct)
	for _, note := range r.Notes {
		fmt.Printf("%s note: %s\n", r.Workload, note)
	}
}

// printContractLine prints the one JSON object the benchmark contract
// reads: exactly correct, attempted, failed and metrics.
func printContractLine(r *runResult) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]value, len(r.Metrics))}
	for name, m := range r.Metrics {
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err.Error())
	}
	fmt.Println(string(line))
}

// envStamp records where a result file was measured.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func environment() envStamp {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return envStamp{Commit: commit, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env envStamp `json:"env"`
	// Comparable is false for smoke-scale or non-default-length runs.
	Comparable bool         `json:"comparable"`
	Runs       []*runResult `json:"runs"`
}

func (f *resultFile) write(path string) error {
	f.Env.CPUModel = cpuModel()
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// cpuModel reads the processor name for the environment stamp. Only -out
// asks for it, so contract runs never read outside their checkout.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printManifest prints BENCHMARK.json from the specs and the catalogue, so
// the file is regenerated rather than edited (a test keeps them in step).
func printManifest() {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, s := range specs() {
		m.Workloads = append(m.Workloads, workload{s.Name, s.Why})
	}
	for _, e := range e2eCatalog {
		m.EndToEnd = append(m.EndToEnd, bounded{e.Name, e.Unit, e.Better, e.Bound})
	}
	for _, l := range layerCatalog {
		m.PerLayer = append(m.PerLayer, unbounded{l.Name, l.Unit, l.Better})
	}
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fatal(err.Error())
	}
	fmt.Println(string(buf))
}
