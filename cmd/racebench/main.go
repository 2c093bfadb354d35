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
//	racebench -json BENCH_PR2.json  # machine-readable ns/op + allocs/op
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
		jsonPath   = flag.String("json", "", "write machine-readable results (ns/op, allocs/op per benchmark and config) to this file and skip the tables")
		benchReps  = flag.Int("benchreps", 1, "measurement reps per -json cell, interleaved across configurations; the report carries median ns/op with min/max spread")
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
		case "benchreps":
			if *benchReps <= 0 {
				flagErr = fmt.Errorf("-benchreps must be >= 1 (got %d)", *benchReps)
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

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fail(err)
		}
		jopts := bench.JSONOptions{BenchReps: *benchReps}
		if err := bench.WriteJSON(f, jopts); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "racebench: wrote %s\n", *jsonPath)
		return
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
	default:
		fmt.Fprintf(os.Stderr, "racebench: unknown table %q\n", *table)
		os.Exit(2)
	}
	if *compare {
		fmt.Fprintln(w)
		if err := bench.CompareDetectors(w); err != nil {
			fail(err)
		}
	}
}
