// Command c2bench regenerates the tables and figures of the paper's
// evaluation. Each experiment prints paper-style rows; absolute numbers
// depend on the hardware and on the synthetic datasets, but the shapes —
// which algorithm wins, by what factor, where the trade-offs knee — are
// the reproduction targets recorded in EXPERIMENTS.md.
//
// Usage:
//
//	c2bench -exp table2 -scale 0.1
//	c2bench -exp all -scale 0.05 -workers 4
//
// Experiments: table1, table2, table3, table4, table5, fig6, fig7, fig8,
// theory, ablations, serve, serve-http, solve, shard, load, update, all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"c2knn/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run: table1..table5, fig6..fig8, theory, ablations, serve, serve-http, solve, shard, load, update, all")
		jsonOut  = flag.String("json", "", "write the serve/serve-http/solve/shard/load/update experiment's summary as JSON to this file (CI records them as benchmarks/BENCH_serve.json, BENCH_http.json, BENCH_solve.json, BENCH_shard.json, BENCH_load.json and BENCH_update.json); when several such experiments run, the experiment name is inserted before the extension")
		scale    = flag.Float64("scale", 0.05, "dataset scale factor (1 = paper size)")
		workers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		seed     = flag.Int64("seed", 42, "master random seed")
		k        = flag.Int("k", 30, "neighborhood size")
		gfbits   = flag.Int("gfbits", 1024, "GoldFinger width in bits")
		folds    = flag.Int("folds", 5, "cross-validation folds for table3")
		datasets = flag.String("datasets", "", "comma-separated dataset subset for table2/table3 (default: all six)")
	)
	flag.Parse()

	env := &experiments.Env{
		Scale:   *scale,
		Workers: *workers,
		Seed:    *seed,
		K:       *k,
		GFBits:  *gfbits,
		Folds:   *folds,
		Out:     os.Stdout,
	}
	var names []string
	if *datasets != "" {
		names = strings.Split(*datasets, ",")
	}

	// Assigned after toRun is known; runners only call it at run time.
	var jsonPath func(string) string

	runners := map[string]func() error{
		"table1":    func() error { _, err := env.Table1(); return err },
		"table2":    func() error { _, err := env.Table2(names); return err },
		"table3":    func() error { _, err := env.Table3(names); return err },
		"table4":    func() error { _, err := env.Table4(); return err },
		"table5":    func() error { _, err := env.Table5(); return err },
		"fig6":      func() error { _, err := env.Fig6(); return err },
		"fig7":      func() error { _, err := env.Fig7(); return err },
		"fig8":      func() error { _, err := env.Fig8(); return err },
		"theory":    func() error { _, err := env.Theory(); return err },
		"ablations": func() error { _, err := env.Ablations(); return err },
		"serve": func() error {
			sum, err := env.Serve()
			if err != nil {
				return err
			}
			return writeSummary(jsonPath("serve"), sum)
		},
		"serve-http": func() error {
			sum, err := env.ServeHTTP()
			if err != nil {
				return err
			}
			return writeSummary(jsonPath("serve-http"), sum)
		},
		"solve": func() error {
			sum, err := env.Solve()
			if err != nil {
				return err
			}
			return writeSummary(jsonPath("solve"), sum)
		},
		"shard": func() error {
			sum, err := env.Shard()
			if err != nil {
				return err
			}
			return writeSummary(jsonPath("shard"), sum)
		},
		"load": func() error {
			sum, err := env.Load()
			if err != nil {
				return err
			}
			return writeSummary(jsonPath("load"), sum)
		},
		"update": func() error {
			sum, err := env.Update()
			if err != nil {
				return err
			}
			return writeSummary(jsonPath("update"), sum)
		},
	}
	order := []string{"table1", "table2", "table3", "table4", "table5", "fig6", "fig7", "fig8", "theory", "ablations", "serve", "serve-http", "solve", "shard", "load", "update"}

	var toRun []string
	if *exp == "all" {
		toRun = order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if _, ok := runners[name]; !ok {
				fmt.Fprintf(os.Stderr, "c2bench: unknown experiment %q\n", name)
				os.Exit(2)
			}
			toRun = append(toRun, name)
		}
	}

	// When several JSON-producing experiments run in one invocation, a
	// single -json path would be silently overwritten by the last one;
	// disambiguate by inserting the experiment name before the extension
	// (out.json → out.serve.json, out.solve.json, out.load.json).
	jsonProducers := 0
	for _, name := range toRun {
		if name == "serve" || name == "serve-http" || name == "solve" || name == "shard" || name == "load" || name == "update" {
			jsonProducers++
		}
	}
	jsonPath = func(name string) string {
		if *jsonOut == "" || jsonProducers <= 1 {
			return *jsonOut
		}
		ext := filepath.Ext(*jsonOut)
		return strings.TrimSuffix(*jsonOut, ext) + "." + name + ext
	}
	for _, name := range toRun {
		start := time.Now()
		if err := runners[name](); err != nil {
			fmt.Fprintf(os.Stderr, "c2bench: %s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("-- %s done in %v\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

// writeSummary records an experiment's flat summary as JSON when -json
// is given (no-op otherwise).
func writeSummary(path string, sum any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
