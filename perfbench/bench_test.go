package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny is a run of the minimum number of rounds on small traces.
func tiny(workload string, trace bool, dir string) runConfig {
	return runConfig{workload: workload, seed: defaultSeed, trace: trace, queries: 300, outDir: dir, log: io.Discard}
}

// TestEveryMetricPrinted runs each workload of BENCHMARK.json briefly in
// both modes and checks that every metric it names is printed with its
// unit, on a metric line and in the final JSON line.
func TestEveryMetricPrinted(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", w.Name, trace), func(t *testing.T) {
				rep, err := run(tiny(w.Name, trace, t.TempDir()))
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("correct=%t failed=%d attempted=%d", rep.Correct, rep.Failed, rep.Attempted)
				}
				want := s.EndToEnd
				if trace {
					want = s.PerLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(rep.Metrics), len(want))
				}
				var out bytes.Buffer
				if err := printReport(&out, rep); err != nil {
					t.Fatal(err)
				}
				lines := readLines(t, &out)
				var last report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the JSON report: %v", err)
				}
				for _, m := range want {
					got, ok := last.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("JSON report: metric %s = %+v, want unit %q", m.Name, got, m.Unit)
					}
					if !hasMetricLine(lines, m) {
						t.Errorf("no metric line for %s in %s", m.Name, m.Unit)
					}
				}
			})
		}
	}
}

// TestCorruptionFails checks that a corrupted answer and a corrupted
// ledger each make the run fail.
func TestCorruptionFails(t *testing.T) {
	for _, fault := range []string{corruptAnswer, corruptLedger} {
		t.Run(fault, func(t *testing.T) {
			cfg := tiny("paper-growth", false, "")
			cfg.corrupt = fault
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Correct || rep.Failed == 0 {
				t.Fatalf("corrupted %s passed: correct=%t failed=%d", fault, rep.Correct, rep.Failed)
			}
		})
	}
}

func readLines(t *testing.T, r io.Reader) []string {
	t.Helper()
	var lines []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 {
		t.Fatal("no output")
	}
	return lines
}

func hasMetricLine(lines []string, m specMetric) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 3 && f[0] == m.Name && f[2] == m.Unit {
			return true
		}
	}
	return false
}
