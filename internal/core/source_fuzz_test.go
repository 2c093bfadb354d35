package core

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"racedet/internal/interp"
)

// FuzzSourceToVerdict runs arbitrary MJ source through the whole live
// pipeline: Compile under Full, then RunConfig unsampled and sampled
// at the fuzzed seed, with a small step budget and timeout. Source
// that does not compile is skipped; a program may fault, deadlock or
// run out of budget. What must never happen is a Go panic escaping,
// or a run ending in an ErrPanic (an interpreter or detector crash
// recovered by Machine.Run). The seeds are the paper programs and the
// corpus. Under plain go test only the seeds run; go test -fuzz
// FuzzSourceToVerdict explores from them.
func FuzzSourceToVerdict(f *testing.F) {
	var files []string
	for _, dir := range []string{"../bench/testdata", "../corpus/testdata"} {
		m, err := filepath.Glob(filepath.Join(dir, "*.mj"))
		if err != nil || len(m) == 0 {
			f.Fatalf("no seed programs in %s: %v", dir, err)
		}
		files = append(files, m...)
	}
	sort.Strings(files)
	for i, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), int64(i))
	}

	f.Fuzz(func(t *testing.T, src string, seed int64) {
		pipe, err := Compile("fuzz.mj", src, Full())
		if err != nil {
			return
		}
		sampled := Full()
		sampled.SampleK = 2
		sampled.SampleBudget = 0.25
		for _, cfg := range []Config{Full(), sampled} {
			cfg.Seed = seed
			cfg.MaxSteps = 200_000
			cfg.Timeout = 2 * time.Second
			res, err := pipe.RunConfig(cfg)
			if err != nil {
				t.Fatalf("RunConfig: %v", err)
			}
			var re *interp.RuntimeError
			if errors.As(res.Err, &re) && re.Kind == interp.ErrPanic {
				t.Fatalf("seed %d, SampleK %d: interpreter crash: %v", seed, cfg.SampleK, re)
			}
		}
	})
}
