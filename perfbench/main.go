// Command perfbench is the repository benchmark. It replays one named
// workload through client.Client against pinned in-process Delta
// deployments, checks every answer and ledger, and prints its metrics by
// name with their units. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 the run alternates untraced and traced
// rounds and reports the per-layer metrics, taken from the traced rounds
// (process metrics from the untraced ones), plus the tracing overhead.
// It exits 1 when any answer or ledger check fails.
//
// Run it from the repository root with perfbench/run.sh, which builds it.
// README.md in this directory lists the workloads, the pins and the
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// defaultSeed is the seed claims are developed on; README.md names the
// held-out seed they are confirmed on.
const defaultSeed = 1

// wallBudget stops a run from starting more rounds once it has run this
// long, so it ends well inside three minutes even on a slow machine.
const wallBudget = 100 * time.Second

// watchdog ends a run that is still going after this long, without a
// result.
const watchdog = 170 * time.Second

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// queries overrides the workload's queries per round when positive;
	// the self-test runs small rounds with it.
	queries int
	// outDir receives the traced run's span file ("" writes none).
	outDir string
	// corrupt injects a fault the checks must catch (self-test only).
	corrupt string
	log     io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := runConfig{log: os.Stderr}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: hot-repeat, paper-mix or paper-growth")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed; round k replays the trace of seed*1000+k+1")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "replay time to measure, summed over rounds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced rounds")
	flag.StringVar(&cfg.outDir, "out", "", "directory for the traced run's span file (empty: none)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1

	// A deployment that hangs must not hold the run past three minutes.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(1)
	})
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printReport(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// printReport writes one line per metric, name, value and unit, then
// the report as the final JSON line.
func printReport(w io.Writer, rep report) error {
	for _, name := range slices.Sorted(maps.Keys(rep.Metrics)) {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "%-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// subSeed is the trace seed of a run's k-th round (or round pair).
func subSeed(seed int64, k int) int64 { return seed*1000 + int64(k) + 1 }

// run replays rounds until the measured replay time reaches cfg.seconds,
// then reports. Each round is a fresh deployment replaying a fresh trace
// of the workload's size; a traced run replays each trace twice, once
// untraced and once traced, alternating which goes first.
func run(cfg runConfig) (report, error) {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return report{}, err
	}
	if cfg.queries > 0 {
		w.queries = cfg.queries
	}
	minRounds := 3
	if cfg.trace {
		minRounds = 4
	}
	var (
		rounds   []*roundResult
		measured time.Duration
		start    = time.Now()
		target   = time.Duration(cfg.seconds * float64(time.Second))
		spans    *spanFile
	)
	if cfg.trace && cfg.outDir != "" {
		path := filepath.Join(cfg.outDir, "spans-"+w.name+".tsv")
		if spans, err = createSpanFile(path); err != nil {
			return report{}, err
		}
		defer spans.f.Close() // error paths only; success closes below
	}
	for k := 0; len(rounds) < minRounds || (measured < target && time.Since(start) < wallBudget); k++ {
		in, err := generate(w, subSeed(cfg.seed, k), w.queries)
		if err != nil {
			return report{}, err
		}
		order := []bool{false}
		if cfg.trace {
			order = []bool{k%2 == 1, k%2 == 0}
		}
		for _, traced := range order {
			r, err := runRound(in, traced, cfg.corrupt)
			if err != nil {
				return report{}, err
			}
			rounds = append(rounds, r)
			measured += r.replay
			fmt.Fprintf(cfg.log, "round %d traced=%t: %d queries, %d births in %v (set-up %v): "+
				"%.0f q/s, p50 %v, p99 %v, %.1f MB/kquery, %d failed\n",
				len(rounds)-1, traced, r.queries, r.births, r.replay.Round(time.Millisecond),
				r.setup.Round(time.Millisecond), float64(r.queries)/r.replay.Seconds(),
				quantile(r.queryLat, 0.5), quantile(r.queryLat, 0.99),
				mbPerKQuery(r.ledger.Total(), r.queries), r.failed)
			for _, f := range r.failures {
				fmt.Fprintln(cfg.log, "  FAIL", f)
			}
			if spans != nil && traced {
				spans.write(len(rounds)-1, r.layers.spans)
			}
			r.layers.spans = nil
		}
	}

	rep := report{Correct: true, Metrics: map[string]metric{}}
	for _, r := range rounds {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
	}
	rep.Correct = rep.Failed == 0
	if spans != nil {
		if err := spans.close(); err != nil {
			return report{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintln(cfg.log, "spans written to", spans.f.Name())
	}
	if cfg.trace {
		perLayer(rep.Metrics, rounds, rep.Failed, rep.Attempted)
	} else {
		endToEnd(rep.Metrics, rounds, cfg.log)
	}
	return rep, nil
}
