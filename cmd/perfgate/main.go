// Command perfgate is the CI performance-regression gate. It compares
// paired runs of cmd/benchmark taken on one host: runs of the parent
// commit against runs of the change.
//
// Usage:
//
//	perfgate <parent-dir> <change-dir>
//
// Each directory holds <workload>.jsonl for every workload that
// BENCHMARK.json (read from the current directory) names, one line per
// run: the last line of standard output of
//
//	bash cmd/benchmark/run.sh --workload W --seed I --seconds S --trace 0
//
// perfgate fails when, on any workload, the median of an end_to_end
// metric on the change is worse than the parent's by more than the
// metric's relative bound, or when the change's share of failed ops
// (failed/attempted, summed over the runs) is higher than the parent's.
//
// Exit codes: 0 pass, 1 regression, 3 usage or I/O error (including a
// missing workload file or a malformed line).
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 || strings.HasPrefix(args[0], "-") || strings.HasPrefix(args[1], "-") {
		fmt.Fprintln(stderr, "usage: perfgate <parent-dir> <change-dir>")
		return 3
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfgate:", err)
		return 3
	}
	var sides [2]map[string][]runLine
	for i, dir := range args {
		if sides[i], err = readSide(dir, sp); err != nil {
			fmt.Fprintln(stderr, "perfgate:", err)
			return 3
		}
		for _, name := range extraWorkloads(dir, sp) {
			fmt.Fprintf(stderr, "perfgate: warning: %s: workload not in BENCHMARK.json, not gated\n", name)
		}
	}
	rows, violations, warnings := compare(sp, sides[0], sides[1])
	printRows(stdout, rows)
	for _, w := range warnings {
		fmt.Fprintf(stderr, "perfgate: warning: %s\n", w)
	}
	if len(violations) > 0 {
		fmt.Fprintf(stderr, "perfgate: %d regression(s):\n", len(violations))
		for _, v := range violations {
			fmt.Fprintf(stderr, "  %s\n", v)
		}
		return 1
	}
	fmt.Fprintf(stdout, "perfgate: ok (%d workloads, %d metrics each, plus the failed-op share)\n",
		len(sp.Workloads), len(sp.EndToEnd))
	return 0
}
