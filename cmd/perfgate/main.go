// Command perfgate is the CI performance-regression gate. It compares
// a freshly measured racebench -json artifact against the checked-in
// baseline (BENCH_PR10.json) and fails if any gated configuration got
// more than -threshold slower (ns/op) on any benchmark.
//
// Only the configurations named by -configs are gated — by default the
// Full detector, the StaticAnalysis pseudo-configuration (compile-phase ns/op, so the
// interprocedural analyses cannot silently blow up compile time),
// ReplayFull (trace-replay throughput, so the record-once/analyze-many
// path cannot silently lose its speed advantage), and
// FullSampledAdaptive (the bounded-overhead production mode, so
// throttling cannot silently lose its suppression), and
// FullSampledPriors (the adaptive mode seeded with static
// lock-discipline tiers, so the prior plumbing cannot silently become
// a per-event tax). The remaining
// configurations are reported but never fail the gate, because on a
// noisy shared runner gating every ablation would make the gate cry
// wolf.
//
// Usage:
//
//	racebench -json fresh.json -benchreps 3
//	perfgate -baseline BENCH_PR10.json -current fresh.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	var (
		baseline  = flag.String("baseline", "BENCH_PR10.json", "checked-in racebench -json artifact to compare against")
		current   = flag.String("current", "", "freshly measured racebench -json artifact (required)")
		threshold = flag.Float64("threshold", 0.25, "maximum tolerated ns/op regression ratio of a gated configuration")
		configs   = flag.String("configs", "Full,StaticAnalysis,ReplayFull,FullSampledAdaptive,FullSampledPriors", "comma-separated configuration names that fail the gate on regression")
	)
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			os.Exit(0)
		}
		os.Exit(3)
	}
	if *current == "" {
		fmt.Fprintln(os.Stderr, "perfgate: -current is required")
		os.Exit(3)
	}
	if *threshold <= 0 {
		fmt.Fprintf(os.Stderr, "perfgate: -threshold must be > 0 (got %g)\n", *threshold)
		os.Exit(3)
	}

	base, err := loadReport(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(2)
	}
	cur, err := loadReport(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(2)
	}

	gated := map[string]bool{}
	for _, c := range strings.Split(*configs, ",") {
		if c = strings.TrimSpace(c); c != "" {
			gated[c] = true
		}
	}

	rows, violations, warnings := compare(base, cur, gated, *threshold)
	printRows(os.Stdout, rows)
	for _, w := range warnings {
		fmt.Fprintf(os.Stderr, "perfgate: warning: %s\n", w)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "perfgate: %d regression(s) beyond %.0f%%:\n", len(violations), *threshold*100)
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Printf("perfgate: ok (%d gated cells within %.0f%%)\n", countGated(rows), *threshold*100)
}
