package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json the gate reads.
type spec struct {
	Workloads []workload   `json:"workloads"`
	EndToEnd  []metricSpec `json:"end_to_end"`
}

type workload struct {
	Name string `json:"name"`
}

// metricSpec is one gated metric: which direction is better, and the
// largest relative change for the worse that still passes.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.Workloads) == 0 || len(sp.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no workloads or no end_to_end metrics", path)
	}
	for _, m := range sp.EndToEnd {
		if (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 {
			return nil, fmt.Errorf("%s: metric %q: want better lower or higher and a positive bound", path, m.Name)
		}
	}
	return &sp, nil
}

// runLine is one run's result line, as cmd/benchmark prints it.
type runLine struct {
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
}

// readSide reads <dir>/<workload>.jsonl for every workload of sp.
func readSide(dir string, sp *spec) (map[string][]runLine, error) {
	out := make(map[string][]runLine, len(sp.Workloads))
	for _, w := range sp.Workloads {
		path := filepath.Join(dir, w.Name+".jsonl")
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		runs, err := readRuns(f, sp.EndToEnd)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[w.Name] = runs
	}
	return out, nil
}

// readRuns parses one workload file. Every line must be a result
// carrying every gated metric, and there must be at least one.
func readRuns(r io.Reader, metrics []metricSpec) ([]runLine, error) {
	var runs []runLine
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		var rl runLine
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		if err := dec.Decode(&rl); err != nil {
			return nil, fmt.Errorf("line %d: malformed result: %v", n, err)
		}
		if dec.More() {
			return nil, fmt.Errorf("line %d: malformed result: trailing data", n)
		}
		for _, m := range metrics {
			if _, ok := rl.Metrics[m.Name]; !ok {
				return nil, fmt.Errorf("line %d: malformed result: no metric %q", n, m.Name)
			}
		}
		runs = append(runs, rl)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no runs")
	}
	return runs, nil
}

// extraWorkloads lists the .jsonl files in dir that name no workload
// of sp, sorted.
func extraWorkloads(dir string, sp *spec) []string {
	known := map[string]bool{}
	for _, w := range sp.Workloads {
		known[w.Name] = true
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	var extra []string
	for _, p := range paths {
		if name := strings.TrimSuffix(filepath.Base(p), ".jsonl"); !known[name] {
			extra = append(extra, name)
		}
	}
	return extra
}

// row is one (workload, metric) comparison. The failed-op share is a
// row too, with Metric "failed_share".
type row struct {
	Workload, Metric string
	Parent, Change   float64
	Limit            string
	Worse            bool
}

// compare checks the change's runs against the parent's, workload by
// workload. A parent median of zero or less means the metric was not
// measured there; it is skipped with a warning rather than compared.
func compare(sp *spec, parent, change map[string][]runLine) (rows []row, violations, warnings []string) {
	for _, w := range sp.Workloads {
		p, c := parent[w.Name], change[w.Name]
		for _, m := range sp.EndToEnd {
			r := row{Workload: w.Name, Metric: m.Name, Parent: median(p, m.Name), Change: median(c, m.Name)}
			if r.Parent <= 0 {
				warnings = append(warnings, fmt.Sprintf("%s/%s: parent median %g, not measured; not gated", w.Name, m.Name, r.Parent))
				continue
			}
			if m.Better == "lower" {
				r.Limit = fmt.Sprintf("<= %.2fx", 1+m.Bound)
				r.Worse = r.Change > r.Parent*(1+m.Bound)
			} else {
				r.Limit = fmt.Sprintf(">= %.2fx", 1-m.Bound)
				r.Worse = r.Change < r.Parent*(1-m.Bound)
			}
			if r.Worse {
				violations = append(violations, fmt.Sprintf("%s/%s: median %.4g -> %.4g (%.2fx, limit %s)",
					w.Name, m.Name, r.Parent, r.Change, r.Change/r.Parent, r.Limit))
			}
			rows = append(rows, r)
		}
		pf, pa := failedOps(p)
		cf, ca := failedOps(c)
		r := row{Workload: w.Name, Metric: "failed_share", Parent: share(pf, pa), Change: share(cf, ca), Limit: "<= parent"}
		if r.Worse = r.Change > r.Parent; r.Worse {
			violations = append(violations, fmt.Sprintf("%s/failed_share: %d of %d ops -> %d of %d ops",
				w.Name, pf, pa, cf, ca))
		}
		rows = append(rows, r)
	}
	return rows, violations, warnings
}

// median is the median of the metric over the runs (the mean of the
// two middle values for an even count).
func median(runs []runLine, metric string) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r.Metrics[metric].Value
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func failedOps(runs []runLine) (failed, attempted int64) {
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

func share(failed, attempted int64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func printRows(w io.Writer, rows []row) {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent\tchange\tratio\tlimit\tverdict")
	for _, r := range rows {
		verdict, ratio := "ok", "-"
		if r.Worse {
			verdict = "WORSE"
		}
		if r.Parent > 0 {
			ratio = fmt.Sprintf("%.2fx", r.Change/r.Parent)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%s\t%s\n", r.Workload, r.Metric, r.Parent, r.Change, ratio, r.Limit, verdict)
	}
	tw.Flush()
}
