package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke tests check
// the printed metrics against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecListsTheWorkloads(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
}

// Every workload runs for a second, untraced and traced, with every
// op's verdict checked and exactly the metrics BENCHMARK.json names.
func TestWorkloadSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				rc := runConfig{
					workload:  w,
					seed:      1,
					duration:  time.Second,
					traced:    traced,
					spansPath: filepath.Join(dir, "spans.json"),
					outDir:    dir,
					setupReps: 1,
					probeReps: 1,
					warmup:    100 * time.Millisecond,
				}
				var log bytes.Buffer
				res, err := execute(rc, &log)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				want := map[string]string{}
				if traced {
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range spec.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				for n, m := range res.Metrics {
					unit, ok := want[n]
					switch {
					case !ok:
						t.Errorf("printed metric %s is not in BENCHMARK.json", n)
					case unit != m.Unit:
						t.Errorf("%s printed in %s, BENCHMARK.json says %s", n, m.Unit, unit)
					}
				}
				for n := range want {
					if _, ok := res.Metrics[n]; !ok {
						t.Errorf("metric %s not printed", n)
					}
				}
				if !traced {
					for n, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v", n, m.Value)
						}
					}
					return
				}
				data, err := os.ReadFile(rc.spansPath)
				if err != nil {
					t.Fatal(err)
				}
				var spans []span
				if err := json.Unmarshal(data, &spans); err != nil {
					t.Fatal(err)
				}
				if len(spans) == 0 {
					t.Error("no spans written")
				}
				// Scratch state is cleaned up; only the spans remain.
				left, _ := os.ReadDir(dir)
				if len(left) != 1 {
					var names []string
					for _, e := range left {
						names = append(names, e.Name())
					}
					sort.Strings(names)
					t.Errorf("left behind in the output directory: %v", names)
				}
			})
		}
	}
}

func TestCommandLine(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "compile", "--seed", "2", "--seconds", "0.3", "--trace", "0", "--out-dir", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Attempted == 0 {
		t.Errorf("result %+v", res)
	}

	stdout.Reset()
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 60}, // overlaps its sibling
		{ID: 4, Parent: 2, StartNs: 15, EndNs: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 50, 2: 25, 3: 30, 4: 5} {
		if self[id] != want {
			t.Errorf("span %d: self %v, want %v", id, self[id], want)
		}
	}
}
