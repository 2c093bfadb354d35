// Benchmarks regenerating the paper's evaluation, one per table and
// figure, plus the ablations DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Table 2 benches report wall time per full benchmark execution under
// each configuration; compare a benchmark's Full time against its Base
// time to get the paper's overhead percentages. The deterministic
// counters behind the same table are asserted in
// internal/bench/bench_test.go and printed by cmd/racebench.
package racedet

import (
	"fmt"
	"math/rand"
	"testing"

	"racedet/internal/bench"
	"racedet/internal/core"
	"racedet/internal/rt/cache"
	"racedet/internal/rt/event"
	"racedet/internal/rt/trie"
)

// runPipeline benchmarks repeated executions of a compiled benchmark.
func runPipeline(b *testing.B, name string, cfg core.Config) {
	bm, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := core.Compile(name+".mj", bm.Source(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipe.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// ---------------------------------------------------------------------------
// Table 1: benchmark characteristics — front-end + static pipeline cost.

func BenchmarkTable1Compile(b *testing.B) {
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			src := bm.Source()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compile(bm.Name+".mj", src, core.Full()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Table 2: runtime performance of the optimization ablations on the
// CPU-bound benchmarks (mtrt, tsp, sor2).

func BenchmarkTable2(b *testing.B) {
	for _, bm := range bench.All() {
		if !bm.CPUBound {
			continue
		}
		for _, c := range bench.Table2Configs() {
			name := fmt.Sprintf("%s/%s", bm.Name, c.Name)
			cfg := c.Cfg
			b.Run(name, func(b *testing.B) {
				runPipeline(b, bm.Name, cfg)
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Table 3: accuracy variants (the run must also produce the counts; we
// benchmark the detection cost of each variant on every benchmark).

func BenchmarkTable3(b *testing.B) {
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"Full", core.Full()},
		{"FieldsMerged", core.Full().MergedFields()},
		{"NoOwnership", core.Full().NoOwnership()},
	}
	for _, bm := range bench.All() {
		for _, v := range variants {
			name := fmt.Sprintf("%s/%s", bm.Name, v.name)
			cfg := v.cfg
			b.Run(name, func(b *testing.B) {
				runPipeline(b, bm.Name, cfg)
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 2: the three-thread example through the whole pipeline.

const figure2Src = `
class Shared { int f; int g; }
class T1 extends Thread {
    Shared a; Shared b; Shared p;
    T1(Shared obj, Shared lock) { a = obj; b = obj; p = lock; }
    synchronized void foo() {
        a.f = 50;
        synchronized (p) { b.g = b.f; }
    }
    void run() { foo(); }
}
class T2 extends Thread {
    Shared d; Shared q;
    T2(Shared obj, Shared lock) { d = obj; q = lock; }
    void bar() { synchronized (q) { d.f = 10; } }
    void run() { bar(); }
}
class Main {
    static Shared x;
    static void main() {
        x = new Shared();
        x.f = 100;
        Shared lockP = new Shared();
        Shared lockQ = new Shared();
        Thread t1 = new T1(x, lockP);
        Thread t2 = new T2(x, lockQ);
        t1.start(); t2.start();
        t1.join(); t2.join();
        print(x.f);
    }
}`

func BenchmarkFigure2Detection(b *testing.B) {
	pipe, err := core.Compile("fig2.mj", figure2Src, core.Full())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipe.Run()
		if err != nil || res.Err != nil {
			b.Fatalf("%v/%v", err, res.Err)
		}
		if len(res.RacyObjects) != 1 {
			b.Fatal("figure 2 race lost")
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 3: loop peeling — the array kernel with and without peeling.

const figure3Src = `
class A {
    int total;
    void fill(int[] a, int n) {
        for (int i = 0; i < n; i++) {
            a[i] = i;
        }
        total = n;
    }
}
class W extends Thread {
    A a; int[] buf;
    W(A a0, int[] b0) { a = a0; buf = b0; }
    void run() { a.fill(buf, buf.length); }
}
class Main {
    static void main() {
        A a = new A();
        int[] shared = new int[512];
        W w1 = new W(a, shared);
        W w2 = new W(a, shared);
        w1.start(); w2.start();
        w1.join(); w2.join();
        print(a.total);
    }
}`

func BenchmarkFigure3Peeling(b *testing.B) {
	for _, v := range []struct {
		name string
		cfg  core.Config
	}{
		{"WithPeeling", core.Full()},
		{"NoPeeling", core.Full().NoPeeling()},
		{"NoDominators", core.Full().NoDominators()},
	} {
		cfg := v.cfg
		b.Run(v.name, func(b *testing.B) {
			pipe, err := core.Compile("fig3.mj", figure3Src, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := pipe.Run()
				if err != nil || res.Err != nil {
					b.Fatalf("%v/%v", err, res.Err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Detector comparison (§8.3/§9): same program, four algorithms.

func BenchmarkDetectorComparison(b *testing.B) {
	for _, v := range []struct {
		name string
		cfg  core.Config
	}{
		{"Trie", core.Full()},
		{"Eraser", core.Full().WithDetector(core.DetEraser)},
		{"ObjectRace", core.Full().WithDetector(core.DetObjectRace)},
		{"HappensBefore", core.Full().WithDetector(core.DetVClock)},
	} {
		cfg := v.cfg
		b.Run(v.name, func(b *testing.B) {
			runPipeline(b, "hedc", cfg)
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation: trie vs flat history (DESIGN.md §4.1). The flat reference
// stores every access per location and scans it on each event.

type flatDetector struct {
	history map[event.Loc][]event.Access
}

func (f *flatDetector) process(e event.Access) bool {
	h := f.history[e.Loc]
	race := false
	for _, p := range h {
		if event.IsRace(p, e) {
			race = true
			break
		}
	}
	f.history[e.Loc] = append(h, e)
	return race
}

// syntheticStream builds an event stream with heavy same-lockset
// repetition (what real programs produce).
func syntheticStream(n int) []event.Access {
	rng := rand.New(rand.NewSource(42))
	out := make([]event.Access, n)
	locksets := []event.Lockset{
		event.NewLockset(),
		event.NewLockset(100),
		event.NewLockset(100, 200),
		event.NewLockset(300),
	}
	for i := range out {
		out[i] = event.Access{
			Loc:    event.Loc{Obj: event.ObjID(rng.Intn(8) + 1), Slot: 0},
			Thread: event.ThreadID(rng.Intn(3)),
			Kind:   event.Kind(rng.Intn(2)),
			Locks:  locksets[rng.Intn(len(locksets))],
		}
	}
	return out
}

func BenchmarkAblationTrieVsFlat(b *testing.B) {
	stream := syntheticStream(20000)
	b.Run("Trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := trie.New()
			for _, e := range stream {
				d.Process(e)
			}
		}
	})
	b.Run("FlatHistory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := &flatDetector{history: make(map[event.Loc][]event.Access)}
			for _, e := range stream {
				d.process(e)
			}
		}
	})
}

// Ablation: the cache hit path (the paper's "ten PowerPC instructions").
func BenchmarkCacheHitPath(b *testing.B) {
	c := cache.New()
	loc := event.Loc{Obj: 7, Slot: 0}
	c.Insert(1, loc, event.Read, 0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Lookup(1, loc, event.Read) {
			b.Fatal("must hit")
		}
	}
}

// Baseline interpreter speed (events per second context for Table 2).
func BenchmarkInterpreterBase(b *testing.B) {
	runPipeline(b, "sor2", core.Base())
}
