package harness

import (
	"fmt"
	"runtime"
	"time"

	"transedge/internal/cryptoutil"
	"transedge/internal/protocol"
)

// Scale controls how faithfully an experiment reproduces the paper's
// parameters. Quick keeps the whole suite runnable in minutes inside
// tests and benchmarks; Paper restores the published workload sizes and
// wide-area delays (run via cmd/transedge-bench -scale paper).
type Scale struct {
	Keys        int
	Duration    time.Duration // measurement window per point
	LatencyUnit time.Duration // how long "1 ms" of paper-injected latency lasts
	ROWorkers   int
	RWWorkers   int
	BatchSizes  []int // which of the paper's batch sizes to sweep
	ScanSizes   []int // Fig. 7 scan lengths
	LatenciesMS []int // Fig. 12/13 injected latencies, in paper ms
	// Engine pins every experiment's storage backend ("" = sharded
	// default; the -engine flag of cmd/transedge-bench sets it). The
	// engines experiment ignores it and sweeps backends itself.
	Engine string
}

// Quick is the CI-friendly scale: ~50x shorter windows, 20x smaller
// keyspace, latencies scaled 1 paper-ms -> 50µs. Ratios between systems
// and trends across sweeps are preserved.
var Quick = Scale{
	Keys:        3000,
	Duration:    350 * time.Millisecond,
	LatencyUnit: 50 * time.Microsecond,
	ROWorkers:   4,
	RWWorkers:   4,
	BatchSizes:  []int{900, 2500},
	ScanSizes:   []int{250, 1000, 2000},
	LatenciesMS: []int{0, 20, 70, 150},
}

// PaperScale restores the published parameters (Sec. 5.1): 1M keys, 20
// worker threads, real injected latencies. Expect the full suite to take
// on the order of an hour.
var PaperScale = Scale{
	Keys:        1000000,
	Duration:    10 * time.Second,
	LatencyUnit: time.Millisecond,
	ROWorkers:   10,
	RWWorkers:   10,
	BatchSizes:  []int{900, 2000, 2500, 3500},
	ScanSizes:   []int{250, 500, 750, 1000, 1250, 1500, 1750, 2000},
	LatenciesMS: []int{0, 20, 70, 150, 300, 500},
}

// Point is one measured datum of a figure or table.
type Point struct {
	Experiment string
	Series     string
	X          string

	LatencyMS     float64
	P99MS         float64
	P999MS        float64 `json:",omitempty"`
	ThroughputTPS float64
	AbortPct      float64
	Round1MS      float64
	Round2EffMS   float64
	Round2Pct     float64

	// Runtime footprint of the run behind this row: live heap after the
	// measurement window and the longest retained log window across
	// replicas. Together they make the checkpointing memory bound (and
	// any regression of it) visible in the recorded perf trajectory.
	HeapMB float64
	LogLen int64

	// Verified-read cost accounting (clientscale rows): canonical proof
	// bytes per read-only reply, Merkle hash operations per read, and
	// total certificate verifications across the run's clients.
	ProofBytesPerReq   float64 `json:",omitempty"`
	VerifyHashesPerReq float64 `json:",omitempty"`
	CertVerifications  int64   `json:",omitempty"`
}

// withRuntime copies a run's footprint measurements onto its point, so
// every recorded BENCH row carries them.
func withRuntime(p Point, r Result) Point {
	p.HeapMB = r.HeapMB
	p.LogLen = r.MaxLogLen
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s Scale) base() Config {
	return Config{
		Clusters:  5,
		F:         1,
		Keys:      s.Keys,
		ROWorkers: s.ROWorkers,
		RWWorkers: s.RWWorkers,
		Duration:  s.Duration,
		Seed:      42,
		Engine:    s.Engine,
		// Baseline edge topology: ~1 paper-ms within a cluster, ~10
		// paper-ms between neighboring edge clusters. Latency sweeps add
		// on top of this via InterLatency overrides.
		IntraLatency: s.LatencyUnit,
		InterLatency: 10 * s.LatencyUnit,
	}
}

// Fig4 — read-only latency, TransEdge vs 2PC/BFT, varying the number of
// clusters accessed (the paper's headline 9–24x gap).
func Fig4(s Scale) []Point {
	var out []Point
	for _, proto := range []Protocol{TwoPCBFT, TransEdge} {
		for m := 1; m <= 5; m++ {
			cfg := s.base()
			cfg.Protocol = proto
			cfg.ROClusters = m
			cfg.RWWorkers = 2 // light background load, as in the paper
			r := Run(cfg)
			out = append(out, withRuntime(Point{
				Experiment: "fig4", Series: string(proto), X: fmt.Sprintf("clusters=%d", m),
				LatencyMS: ms(r.RO.Mean), P99MS: ms(r.RO.P99), ThroughputTPS: r.RO.Throughput,
			}, r))
		}
	}
	return out
}

// Fig5 — read-only latency split into round 1 and the effective cost of
// round 2, compared with Augustus.
func Fig5(s Scale) []Point {
	var out []Point
	for m := 1; m <= 5; m++ {
		cfg := s.base()
		cfg.Protocol = TransEdge
		cfg.ROClusters = m
		cfg.RWWorkers = 4 // concurrent writers provoke repair rounds
		r := Run(cfg)
		out = append(out, withRuntime(Point{
			Experiment: "fig5", Series: "TransEdge", X: fmt.Sprintf("clusters=%d", m),
			LatencyMS: ms(r.RO.Mean), Round1MS: ms(r.Round1Mean),
			Round2EffMS: r.Round2Frac * ms(r.Round2Extra), Round2Pct: 100 * r.Round2Frac,
			ThroughputTPS: r.RO.Throughput,
		}, r))
	}
	for m := 1; m <= 5; m++ {
		cfg := s.base()
		cfg.Protocol = Augustus
		cfg.ROClusters = m
		cfg.RWWorkers = 4
		r := Run(cfg)
		out = append(out, withRuntime(Point{
			Experiment: "fig5", Series: "Augustus", X: fmt.Sprintf("clusters=%d", m),
			LatencyMS: ms(r.RO.Mean), ThroughputTPS: r.RO.Throughput,
		}, r))
	}
	return out
}

// Fig6 — read-only throughput, TransEdge vs Augustus.
func Fig6(s Scale) []Point {
	var out []Point
	for _, proto := range []Protocol{TransEdge, Augustus} {
		for m := 1; m <= 5; m++ {
			cfg := s.base()
			cfg.Protocol = proto
			cfg.ROClusters = m
			cfg.ROWorkers = s.ROWorkers * 2 // closed-loop read pressure
			cfg.RWWorkers = 0
			r := Run(cfg)
			out = append(out, withRuntime(Point{
				Experiment: "fig6", Series: string(proto), X: fmt.Sprintf("clusters=%d", m),
				ThroughputTPS: r.RO.Throughput, LatencyMS: ms(r.RO.Mean),
			}, r))
		}
	}
	return out
}

// Fig7 — long-running read-only scans vs Augustus under write load.
func Fig7(s Scale) []Point {
	var out []Point
	for _, proto := range []Protocol{TransEdge, Augustus} {
		for _, scan := range s.ScanSizes {
			cfg := s.base()
			cfg.Protocol = proto
			cfg.ROScanSize = scan
			cfg.ROWorkers = 2
			cfg.RWWorkers = 4
			cfg.Duration = s.Duration * 2 // scans are slow; keep samples meaningful
			r := Run(cfg)
			out = append(out, withRuntime(Point{
				Experiment: "fig7", Series: string(proto), X: fmt.Sprintf("readops=%d", scan),
				LatencyMS: ms(r.RO.Mean), AbortPct: r.RW.AbortPct(),
			}, r))
		}
	}
	return out
}

// Fig8 — read-only throughput as inter-cluster latency grows.
func Fig8(s Scale) []Point {
	var out []Point
	for _, lat := range s.LatenciesMS {
		cfg := s.base()
		cfg.Protocol = TransEdge
		cfg.InterLatency += time.Duration(lat) * s.LatencyUnit // additional latency
		cfg.ROWorkers = s.ROWorkers * 2
		cfg.RWWorkers = 0
		r := Run(cfg)
		out = append(out, withRuntime(Point{
			Experiment: "fig8", Series: "TransEdge", X: fmt.Sprintf("latency=%dms", lat),
			ThroughputTPS: r.RO.Throughput, LatencyMS: ms(r.RO.Mean),
		}, r))
	}
	return out
}

// Fig9 — write-only and local read-write throughput vs batch size, on
// TransEdge and the (structurally identical) 2PC/BFT system.
func Fig9(s Scale) []Point {
	var out []Point
	type variant struct {
		series   string
		protocol Protocol
		readOps  int
	}
	variants := []variant{
		{"Write-only-RW TransEdge", TransEdge, 0},
		{"Local-RW TransEdge", TransEdge, 5},
		{"Local-RW 2PC/BFT", TwoPCBFT, 5},
	}
	for _, v := range variants {
		for _, bs := range s.BatchSizes {
			cfg := s.base()
			cfg.Protocol = v.protocol
			cfg.BatchMaxSize = bs
			cfg.ROWorkers = 0
			cfg.RWWorkers = s.RWWorkers * 2
			cfg.LocalFraction = 1.0
			cfg.ReadOps = v.readOps
			cfg.WriteOps = 3
			r := Run(cfg)
			out = append(out, withRuntime(Point{
				Experiment: "fig9", Series: v.series, X: fmt.Sprintf("batch=%d", bs),
				ThroughputTPS: r.RW.Throughput, LatencyMS: ms(r.RW.Mean),
			}, r))
		}
	}
	return out
}

// Fig10and11 — distributed read-write latency (Fig. 10) and throughput
// (Fig. 11) across the read/write skew, per batch size.
func Fig10and11(s Scale) []Point {
	var out []Point
	skews := [][2]int{{5, 1}, {4, 2}, {3, 3}, {2, 4}, {1, 5}}
	for _, bs := range s.BatchSizes {
		for _, skew := range skews {
			cfg := s.base()
			cfg.Protocol = TransEdge
			cfg.BatchMaxSize = bs
			cfg.ROWorkers = 0
			cfg.ReadOps, cfg.WriteOps = skew[0], skew[1]
			cfg.LocalFraction = 0
			r := Run(cfg)
			out = append(out, withRuntime(Point{
				Experiment: "fig10+11", Series: fmt.Sprintf("batch=%d", bs),
				X:         fmt.Sprintf("R=%d,W=%d", skew[0], skew[1]),
				LatencyMS: ms(r.RW.Mean), ThroughputTPS: r.RW.Throughput, AbortPct: r.RW.AbortPct(),
			}, r))
		}
	}
	return out
}

// Fig12 — distributed read-write throughput as inter-cluster latency
// grows to wide-area magnitudes.
func Fig12(s Scale) []Point {
	var out []Point
	for _, bs := range s.BatchSizes {
		for _, lat := range s.LatenciesMS {
			cfg := s.base()
			cfg.Protocol = TransEdge
			cfg.BatchMaxSize = bs
			cfg.ROWorkers = 0
			cfg.LocalFraction = 0
			cfg.InterLatency += time.Duration(lat) * s.LatencyUnit
			r := Run(cfg)
			out = append(out, withRuntime(Point{
				Experiment: "fig12", Series: fmt.Sprintf("batch=%d", bs),
				X:             fmt.Sprintf("latency=%dms", lat),
				ThroughputTPS: r.RW.Throughput, LatencyMS: ms(r.RW.Mean),
			}, r))
		}
	}
	return out
}

// Fig13 — read-write abort percentage vs batch size under injected
// latency.
func Fig13(s Scale) []Point {
	var out []Point
	lats := s.LatenciesMS
	if len(lats) > 3 {
		lats = lats[:3] // the paper plots 0/20/70 ms
	}
	for _, lat := range lats {
		for _, bs := range s.BatchSizes {
			cfg := s.base()
			cfg.Protocol = TransEdge
			cfg.BatchMaxSize = bs
			cfg.ROWorkers = 0
			cfg.LocalFraction = 0
			cfg.Keys = s.Keys / 4 // hotter keyspace so conflicts materialize
			cfg.InterLatency += time.Duration(lat) * s.LatencyUnit
			r := Run(cfg)
			out = append(out, withRuntime(Point{
				Experiment: "fig13", Series: fmt.Sprintf("latency=%dms", lat),
				X:        fmt.Sprintf("batch=%d", bs),
				AbortPct: r.RW.AbortPct(), ThroughputTPS: r.RW.Throughput,
			}, r))
		}
	}
	return out
}

// Fig14 — throughput across the local/distributed transaction mix.
func Fig14(s Scale) []Point {
	var out []Point
	for _, bs := range s.BatchSizes {
		for _, local := range []int{0, 20, 40, 60, 80, 100} {
			cfg := s.base()
			cfg.Protocol = TransEdge
			cfg.BatchMaxSize = bs
			cfg.ROWorkers = 0
			cfg.LocalFraction = float64(local) / 100
			r := Run(cfg)
			out = append(out, withRuntime(Point{
				Experiment: "fig14", Series: fmt.Sprintf("batch=%d", bs),
				X:             fmt.Sprintf("LRWT=%d%%", local),
				ThroughputTPS: r.RW.Throughput, LatencyMS: ms(r.RW.Mean),
			}, r))
		}
	}
	return out
}

// Fig15 — the cost of higher fault tolerance: f = 1, 2, 3 (4, 7, 10
// replicas per cluster).
func Fig15(s Scale) []Point {
	var out []Point
	for _, f := range []int{1, 2, 3} {
		for _, bs := range s.BatchSizes {
			cfg := s.base()
			cfg.Protocol = TransEdge
			cfg.F = f
			cfg.BatchMaxSize = bs
			cfg.ROWorkers = 0
			cfg.LocalFraction = 0
			r := Run(cfg)
			out = append(out, withRuntime(Point{
				Experiment: "fig15", Series: fmt.Sprintf("f=%d", f),
				X:         fmt.Sprintf("batch=%d", bs),
				LatencyMS: ms(r.RW.Mean), ThroughputTPS: r.RW.Throughput,
			}, r))
		}
	}
	return out
}

// Table1 — read-write aborts caused by conflicting read-only
// transactions. As in the paper, the interference is measured under
// long-running read-only transactions (the Fig. 7 workload): Augustus
// counts writer aborts on reader-held locks directly; for TransEdge we
// measure the abort-rate delta between runs with and without read-only
// load (zero by non-interference).
func Table1(s Scale) []Point {
	// Long scans spanning every partition, sized relative to the keyspace
	// so the locked fraction (which drives Augustus's abort magnitude)
	// stays comparable across scales.
	scan := s.Keys / 40
	if scan < 10 {
		scan = 10
	}
	var out []Point
	for m := 1; m <= 5; m++ {
		// TransEdge: with and without read-only pressure.
		with := s.base()
		with.Protocol = TransEdge
		with.ROClusters = m
		with.ROScanSize = scan
		with.ROWorkers = s.ROWorkers * 2
		rWith := Run(with)
		without := with
		without.ROWorkers = 0
		rWithout := Run(without)
		delta := rWith.RW.AbortPct() - rWithout.RW.AbortPct()
		if delta < 0 {
			delta = 0
		}
		out = append(out, withRuntime(Point{
			Experiment: "table1", Series: "TransEdge", X: fmt.Sprintf("clusters=%d", m),
			AbortPct: delta,
		}, rWithout))

		aug := s.base()
		aug.Protocol = Augustus
		aug.ROClusters = m
		aug.ROScanSize = scan
		aug.ROWorkers = s.ROWorkers * 2
		rAug := Run(aug)
		attempts := rAug.RW.Count + rAug.RW.Aborts
		pct := 0.0
		if attempts > 0 {
			pct = 100 * float64(rAug.LockAborts) / float64(attempts)
		}
		out = append(out, withRuntime(Point{
			Experiment: "table1", Series: "Augustus", X: fmt.Sprintf("clusters=%d", m),
			AbortPct: pct,
		}, rAug))
	}
	return out
}

// Pipeline — commit throughput across leader pipeline depths. With depth
// 1 (the paper's one-batch-at-a-time rule) every batch waits out a full
// consensus round before the next proposal, so consensus latency caps
// commit throughput; deeper pipelines keep PipelineDepth speculative
// batches in flight. Local transactions under a closed loop with a
// non-trivial intra-cluster latency make the effect visible: per-slot
// consensus takes ~3 one-way hops, which depth 1 serializes and depth 4
// overlaps.
func Pipeline(s Scale) []Point {
	var out []Point
	for _, depth := range []int{1, 2, 4} {
		cfg := s.base()
		cfg.Protocol = TransEdge
		cfg.PipelineDepth = depth
		cfg.Clusters = 2
		cfg.ROWorkers = 0
		cfg.RWWorkers = s.RWWorkers * 4
		cfg.LocalFraction = 1.0
		// Write-only transactions over cheap client links but expensive
		// intra-cluster hops: commit latency is then dominated by the
		// consensus rounds the pipeline does (depth 1) or does not
		// (depth 4) serialize. The hops are deliberately long relative to
		// the per-batch CPU cost (signatures, Merkle updates) so the
		// experiment measures pipeline stalls, not crypto throughput, and
		// the batch interval bounds the batch rate so deeper pipelines
		// don't degenerate into thousands of tiny batches.
		cfg.ReadOps = NoOps
		cfg.WriteOps = 3
		cfg.IntraLatency = 80 * s.LatencyUnit
		cfg.InterLatency = 4 * s.LatencyUnit
		cfg.BatchInterval = 20 * s.LatencyUnit
		cfg.Duration = s.Duration * 2
		r := Run(cfg)
		out = append(out, withRuntime(Point{
			Experiment: "pipeline", Series: "TransEdge",
			X:             fmt.Sprintf("depth=%d", depth),
			ThroughputTPS: r.RW.Throughput, LatencyMS: ms(r.RW.Mean),
			P99MS: ms(r.RW.P99), AbortPct: r.RW.AbortPct(),
		}, r))
	}
	return out
}

// setHotpathOptimizations flips the two switchable hot-path
// optimizations — digest memoization and early-exit certificate
// verification — together, so the hotpath experiment can record before
// ("pre") and after ("post") rows from one binary. Everything else stays
// on in both modes: the bulk Merkle apply (Apply is always the bulk
// merge) and the micro-optimizations (pooled encoder buffers, the client
// certificate cache), so the pre/post gap understates the distance to the
// PR-1 build. BENCH_hotpath.json holds rows recorded while the bulk apply
// switched too.
func setHotpathOptimizations(on bool) {
	protocol.SetDigestMemo(on)
	cryptoutil.SetFastVerify(on)
}

// Hotpath — before/after sweep of the per-slot CPU hot paths every
// pipelined batch pays: digest memoization and early-exit/parallel
// certificate verification. Unlike
// the pipeline experiment (which stretches network hops so stalls
// dominate), this point keeps links cheap and batches full so per-batch
// CPU work — redundant header re-encodes, serial signature checks — is
// the bottleneck the rows expose. "pre" disables the two switchable
// optimizations; "post" is the shipped configuration.
func Hotpath(s Scale) []Point {
	var out []Point
	modes := []struct {
		name string
		fast bool
	}{{"pre", false}, {"post", true}}
	for _, mode := range modes {
		setHotpathOptimizations(mode.fast)
		for _, depth := range []int{1, 4} {
			cfg := s.base()
			cfg.Protocol = TransEdge
			cfg.PipelineDepth = depth
			cfg.Clusters = 2
			cfg.ROWorkers = 0
			// Enough closed-loop writers to keep the replicas CPU-bound
			// despite the long flush interval below.
			cfg.RWWorkers = s.RWWorkers * 16
			cfg.LocalFraction = 1.0
			cfg.ReadOps = NoOps
			// Wide write sets: every write is one Merkle insert plus its
			// share of three section encodes on every replica, so the
			// per-batch CPU cost the overhaul attacks dominates. A cooler
			// keyspace keeps OCC aborts (and their noise) out of the
			// throughput signal.
			cfg.WriteOps = 8
			cfg.Keys = s.Keys * 10
			cfg.IntraLatency = 2 * s.LatencyUnit
			cfg.InterLatency = 2 * s.LatencyUnit
			// A long flush interval fills batches to hundreds of writes,
			// amortizing the fixed per-batch signature work that this
			// overhaul does not target; what remains per transaction is
			// encoding and Merkle hashing, which it does.
			cfg.BatchInterval = 200 * s.LatencyUnit
			cfg.Duration = s.Duration * 4
			runtime.GC() // level GC debt between points
			r := Run(cfg)
			out = append(out, withRuntime(Point{
				Experiment: "hotpath", Series: mode.name,
				X:             fmt.Sprintf("depth=%d", depth),
				ThroughputTPS: r.RW.Throughput, LatencyMS: ms(r.RW.Mean),
				P99MS: ms(r.RW.P99), AbortPct: r.RW.AbortPct(),
			}, r))
		}
	}
	setHotpathOptimizations(true)
	return out
}

// ReadScale — read-only throughput across store shard counts at
// read-heavy mixes. One partition isolates the per-replica read path;
// cheap links and closed-loop mixed workers keep the replica CPU-bound,
// so the bottleneck is exactly what the sharded engine and the off-loop
// executor pool attack: the store lock and the consensus loop serving
// every read inline. The shards=1 series pins the executor pool to one
// worker as well, approximating the seed's serial read path; higher
// series scale both together, and read throughput should rise with the
// series while the write path (same batch pipeline in every series)
// holds steady.
func ReadScale(s Scale) []Point {
	var out []Point
	for _, shards := range []int{1, 4, 16} {
		for _, roPct := range []int{50, 90, 99} {
			cfg := s.base()
			cfg.Protocol = TransEdge
			cfg.Clusters = 1
			cfg.StoreShards = shards
			cfg.ReadExecutors = shards
			cfg.ROWorkers = 0
			cfg.RWWorkers = 0
			cfg.MixedWorkers = s.ROWorkers * 6
			cfg.ROFraction = float64(roPct) / 100
			// Wide read-only transactions (8 keys, each with a Merkle
			// proof) make per-read CPU the dominant cost; write-only RW
			// transactions keep versions churning underneath the readers.
			cfg.ROPerCluster = 8
			cfg.ReadOps = NoOps
			cfg.WriteOps = 3
			cfg.IntraLatency = 2 * s.LatencyUnit
			cfg.InterLatency = 2 * s.LatencyUnit
			cfg.Duration = s.Duration * 2
			runtime.GC() // level GC debt between points
			r := Run(cfg)
			out = append(out, withRuntime(Point{
				Experiment: "readscale", Series: fmt.Sprintf("shards=%d", shards),
				X:             fmt.Sprintf("ro=%d%%", roPct),
				ThroughputTPS: r.RO.Throughput, LatencyMS: ms(r.RO.Mean),
				P99MS: ms(r.RO.P99), AbortPct: r.RW.AbortPct(),
			}, r))
		}
	}
	return out
}

// Engines compares the registered storage backends under two of the
// paper workloads: the write-heavy pipeline shape (consensus-paced
// commits churning versions) and the 90%-read-only readscale shape
// (snapshot fan-outs dominating). One row per backend x workload, with
// HeapMB recorded so the engines' memory shapes — flat maps vs
// memtable+runs — are visible next to their throughput.
func Engines(s Scale) []Point {
	var out []Point
	for _, engine := range []string{"sharded", "lsm"} {
		// Write-heavy: the pipeline experiment's depth-4 point.
		cfg := s.base()
		cfg.Protocol = TransEdge
		cfg.Engine = engine
		cfg.Clusters = 2
		cfg.ROWorkers = 0
		cfg.RWWorkers = s.RWWorkers * 4
		cfg.LocalFraction = 1.0
		cfg.ReadOps = NoOps
		cfg.WriteOps = 3
		cfg.IntraLatency = 80 * s.LatencyUnit
		cfg.InterLatency = 4 * s.LatencyUnit
		cfg.BatchInterval = 20 * s.LatencyUnit
		cfg.Duration = s.Duration * 2
		runtime.GC()
		r := Run(cfg)
		out = append(out, withRuntime(Point{
			Experiment: "engines", Series: engine, X: "pipeline",
			ThroughputTPS: r.RW.Throughput, LatencyMS: ms(r.RW.Mean),
			P99MS: ms(r.RW.P99), AbortPct: r.RW.AbortPct(),
		}, r))

		// Read-heavy: the readscale experiment's 90% read-only mix.
		cfg = s.base()
		cfg.Protocol = TransEdge
		cfg.Engine = engine
		cfg.Clusters = 1
		cfg.StoreShards = 16
		cfg.ReadExecutors = 16
		cfg.ROWorkers = 0
		cfg.RWWorkers = 0
		cfg.MixedWorkers = s.ROWorkers * 6
		cfg.ROFraction = 0.9
		cfg.ROPerCluster = 8
		cfg.ReadOps = NoOps
		cfg.WriteOps = 3
		cfg.IntraLatency = 2 * s.LatencyUnit
		cfg.InterLatency = 2 * s.LatencyUnit
		cfg.Duration = s.Duration * 2
		runtime.GC()
		r = Run(cfg)
		out = append(out, withRuntime(Point{
			Experiment: "engines", Series: engine, X: "readscale-ro90",
			ThroughputTPS: r.RO.Throughput, LatencyMS: ms(r.RO.Mean),
			P99MS: ms(r.RO.P99), AbortPct: r.RW.AbortPct(),
		}, r))
	}
	return out
}

// Experiments maps experiment IDs to their runners, for the CLI.
var Experiments = map[string]func(Scale) []Point{
	"fig4":        Fig4,
	"fig5":        Fig5,
	"fig6":        Fig6,
	"fig7":        Fig7,
	"fig8":        Fig8,
	"fig10":       Fig10and11,
	"fig11":       Fig10and11,
	"fig9":        Fig9,
	"fig12":       Fig12,
	"fig13":       Fig13,
	"fig14":       Fig14,
	"fig15":       Fig15,
	"table1":      Table1,
	"pipeline":    Pipeline,
	"hotpath":     Hotpath,
	"readscale":   ReadScale,
	"clientscale": ClientScale,
	"recovery":    Recovery,
	"viewchange":  ViewChange,
	"durability":  Durability,
	"engines":     Engines,
}

// Order lists experiments in paper order for -experiment all.
var Order = []string{
	"fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig12", "fig13", "fig14", "fig15", "table1",
	"pipeline", "hotpath", "readscale", "clientscale", "recovery",
	"viewchange", "durability", "engines",
}
