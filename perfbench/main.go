// Command perfbench is the repository benchmark. For one workload it
// generates a seeded dataset, builds its C² graph at the paper's
// defaults, saves and memory-maps the snapshot, serves it over loopback
// HTTP in this process, drives closed-loop reads and writes against it,
// checks every answer, and prints one JSON result line.
//
//	perfbench --workload ml10M-miss --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same workload runs with spans recorded around every
// call into a layer and the result carries the per-layer ledger. See
// README.md for the workloads, the metrics and a first reading.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"c2knn"
)

// A workload is one set of inputs; every workload runs the same phases
// (build → load → rounds of reads, saturation and writes).
type workload struct {
	name   string
	preset string
	t      int     // FRH configurations, for the build and for upsert placement
	zipf   float64 // read popularity exponent; 0 reads users uniformly
	rounds int     // rounds per run; see serve
	// Operations per second of --seconds: reads at concurrency 1,
	// operations at concurrency nproc, and upserts of the write phase.
	reads, sat, writes int
	// mixEvery puts one upsert after every mixEvery reads of the read
	// and saturation streams, on a writable daemon; 0 reads a read-only
	// daemon and writes in a phase of their own.
	mixEvery int
}

// The workloads and why each was chosen are described in README.md.
var workloads = []workload{
	{name: "ml10M-miss", preset: "ml10M", t: 8, rounds: 6, reads: 300, sat: 900, writes: 40},
	{name: "dblp-hit", preset: "DBLP", t: 15, zipf: 1.1, rounds: 12, reads: 1500, sat: 5000, writes: 300},
	{name: "am-mixed", preset: "AM", t: 8, zipf: 1.1, rounds: 7, reads: 800, sat: 2000, mixEvery: 20},
}

const (
	recN         = 30   // items per recommendation (the paper's list size)
	setupReps    = 3    // set-ups per untraced run; setup_s is their median
	sampleUsers  = 200  // users per in-process timing sample and per check sample
	qualityUsers = 1000 // users per Eq. 2 sample
	oracleUsers  = 100  // users checked against the map-based oracle
	cacheFill    = 5000 // distinct reads after writes quiesce: enough to fill every cache shard
	probeOps     = 20   // in-process upserts per delta probe (traced runs)
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one benchmark run's settings and its bookkeeping.
type run struct {
	wl      workload
	seed    int64
	seconds int
	tr      *tracer // nil in untraced runs
	dir     string  // scratch directory for snapshots, removed at exit

	attempted, failed int
	problems          []string
	metrics           map[string]metric

	// buildOverhead and serveOverhead are the traced-over-untraced time
	// ratios minus one, measured within a traced run.
	buildOverhead, serveOverhead float64
	rids                         int     // traced requests sent
	recommendUs                  float64 // in-process Index.Recommend median
	shed, timeouts               uint64  // summed over the run's daemons
	lastMark                     time.Time

	buildStats              c2knn.C2Stats // of the served, untimed first build
	buildTimes, buildAllocs []float64
	gcCycles                uint32 // during the serving calls
	gcPauseNs               uint64
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 10, "run length; operation counts scale with it")
		trace   = flag.Int("trace", 0, "1 records per-layer spans and reports the ledger")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds, trace int) error {
	var wl workload
	for _, w := range workloads {
		if w.name == name {
			wl = w
		}
	}
	if wl.name == "" {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &run{wl: wl, seed: seed, seconds: seconds, dir: dir, metrics: map[string]metric{}, lastMark: time.Now()}
	if trace == 1 {
		r.tr = newTracer()
	}
	if err := r.execute(); err != nil {
		return err
	}
	for i, p := range r.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: and %d more failed checks\n", len(r.problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	out, err := json.Marshal(result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// execute runs the workload's phases and fills r.metrics.
func (r *run) execute() error {
	calibStart := calibrate()
	runtime.GC()
	p, err := r.prepare()
	if err != nil {
		return err
	}
	if err := r.serve(p); err != nil {
		return err
	}
	calibEnd := calibrate()
	fmt.Printf("# calib start_ms=%.3f end_ms=%.3f\n", calibStart, calibEnd)
	if r.tr != nil {
		r.layer("env.calib_ms", (calibStart+calibEnd)/2, "ms")
		r.layer("failed_frac", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
	}
	return nil
}

// op records one attempted operation; ok false counts it failed and
// marks the run incorrect with the reason.
func (r *run) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check marks the run incorrect when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// endToEnd records an end-to-end metric; it is reported by untraced runs.
func (r *run) endToEnd(name string, v float64, unit string) {
	if r.tr == nil {
		r.set(name, v, unit)
	}
}

// layer records a per-layer metric; it is reported by traced runs.
func (r *run) layer(name string, v float64, unit string) {
	if r.tr != nil {
		r.set(name, v, unit)
	}
}

func (r *run) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check(false, "metric %s has no value", name)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// mark prints how long the phase that just ended took, to stderr.
func (r *run) mark(phase string) {
	now := time.Now()
	fmt.Fprintf(os.Stderr, "# phase %s %.2fs\n", phase, now.Sub(r.lastMark).Seconds())
	r.lastMark = now
}

// snapshotPath is where the run keeps its snapshot.
func (r *run) snapshotPath() string { return filepath.Join(r.dir, "index.c2") }
