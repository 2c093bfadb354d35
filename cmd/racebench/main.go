// Command racebench regenerates the evaluation of the paper: Table 1
// (benchmark characteristics), Table 2 (runtime performance of the
// optimization ablations), Table 3 (objects with dataraces under the
// accuracy variants), and the §8.3/§9 detector comparison.
//
// Usage:
//
//	racebench -table all            # everything
//	racebench -table 2 -runs 5      # Table 2, best of five runs
//	racebench -compare              # trie vs Eraser/ObjectRace/HB
//
// Wall-clock performance is measured by cmd/benchmark (BENCHMARK.json),
// not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"racedet/internal/bench"
	"racedet/internal/profiling"
)

func main() {
	var (
		table      = flag.String("table", "all", "which table to regenerate: 1, 2, 3, or all")
		runs       = flag.Int("runs", 5, "Table 2: runs per configuration (best is reported, as in the paper)")
		compare    = flag.Bool("compare", false, "also print the detector comparison (§8.3/§9)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	// A bad flag is a usage error (exit 3), consistent with racedet.
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			os.Exit(0)
		}
		os.Exit(3)
	}
	var flagErr error
	flag.Visit(func(f *flag.Flag) {
		if flagErr != nil {
			return
		}
		switch f.Name {
		case "runs":
			if *runs <= 0 {
				flagErr = fmt.Errorf("-runs must be >= 1 (got %d)", *runs)
			}
		case "table":
			switch *table {
			case "1", "2", "3", "all":
			default:
				flagErr = fmt.Errorf("unknown table %q (want 1, 2, 3 or all)", *table)
			}
		}
	})
	if flagErr != nil {
		fmt.Fprintln(os.Stderr, "racebench:", flagErr)
		os.Exit(3)
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "racebench:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "racebench:", err)
		stopProfiles()
		os.Exit(1)
	}

	w := os.Stdout
	switch *table {
	case "1":
		bench.Table1(w)
	case "2":
		if err := bench.Table2(w, *runs); err != nil {
			fail(err)
		}
	case "3":
		if err := bench.Table3(w); err != nil {
			fail(err)
		}
	case "all":
		bench.Table1(w)
		fmt.Fprintln(w)
		if err := bench.Table2(w, *runs); err != nil {
			fail(err)
		}
		fmt.Fprintln(w)
		if err := bench.Table3(w); err != nil {
			fail(err)
		}
		fmt.Fprintln(w)
		if err := bench.CompareDetectors(w); err != nil {
			fail(err)
		}
		return
	}
	if *compare {
		fmt.Fprintln(w)
		if err := bench.CompareDetectors(w); err != nil {
			fail(err)
		}
	}
}
