// Co-analysis tour: the paper's §10 closes by planning to "broaden the
// static/dynamic coanalysis approach to tackle other problems such as
// deadlock detection and immutability analysis", and §1/§2.6 sketch a
// post-mortem mode. This example runs all three extensions on one
// program:
//
//   - the race detector finds the unsynchronized counter;
//   - the lock-order analysis flags an AB-BA inversion that the
//     observed (join-serialized) run never turns into an actual hang;
//   - the immutability analysis certifies the config fields as
//     observed-immutable, documenting why their unlocked cross-thread
//     reads are harmless;
//   - the recorded event trace is replayed off-line and its FullRace
//     set reconstructed.
//
// Run with:
//
//	go run ./examples/coanalysis
package main

import (
	"bytes"
	"fmt"
	"log"

	"racedet"
)

const program = `
class Config {
    int retries;   // written once by main, read by everyone: immutable
    int timeout;   // likewise
}

class Stats {
    int processed; // RACY: updated with no lock
}

class LockA { int pad; }
class LockB { int pad; }

class Worker extends Thread {
    Config cfg;
    Stats stats;
    LockA a;
    LockB b;
    boolean inverted;

    Worker(Config c, Stats s, LockA a0, LockB b0, boolean inv) {
        cfg = c;
        stats = s;
        a = a0;
        b = b0;
        inverted = inv;
    }

    void step() {
        // Lock-order inversion hazard: the late worker locks B then A
        // while the others lock A then B. The join below serializes
        // the inverted worker, so the observed run never hangs — but
        // the lock-order graph still records the cycle.
        if (inverted) {
            synchronized (b) { synchronized (a) { touch(); } }
        } else {
            synchronized (a) { synchronized (b) { touch(); } }
        }
        // The counter update happens OUTSIDE the critical sections:
        // this is the datarace.
        int work = cfg.retries + cfg.timeout;   // immutable reads
        stats.processed = stats.processed + work % 3 + 1;
    }

    void touch() {
        int probe = cfg.retries;                // immutable read
        if (probe < 0) { print(probe); }
    }

    void run() {
        for (int i = 0; i < 5; i++) { step(); }
    }
}

class Main {
    static void main() {
        Config cfg = new Config();
        cfg.retries = 3;
        cfg.timeout = 100;
        Stats stats = new Stats();
        LockA a = new LockA();
        LockB b = new LockB();
        Worker w1 = new Worker(cfg, stats, a, b, false);
        Worker w2 = new Worker(cfg, stats, a, b, false);
        Worker w3 = new Worker(cfg, stats, a, b, true);
        w1.start();
        w2.start();      // w1 and w2 overlap: the race is observed
        w1.join();
        w2.join();
        w3.start();      // serialized: the inversion never hangs
        w3.join();
        print(stats.processed);
    }
}
`

func main() {
	var eventTrace bytes.Buffer
	res, err := racedet.Detect("coanalysis.mj", program, racedet.Options{
		DetectDeadlocks:     true,
		AnalyzeImmutability: true,
		TraceTo:             &eventTrace,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== dataraces ==")
	for _, r := range res.Races {
		fmt.Println(" ", r)
		for _, p := range r.StaticPartners {
			fmt.Println("    may race with code at", p)
		}
	}

	fmt.Println()
	fmt.Println("== potential deadlocks (lock-order graph) ==")
	for _, r := range res.PotentialDeadlocks {
		fmt.Println(" ", r)
	}

	fmt.Println()
	fmt.Println("== immutability (§10 future work) ==")
	for _, r := range res.Immutability {
		fmt.Println(" ", r)
	}

	fmt.Println()
	fmt.Println("== post-mortem (§1/§2.6) ==")
	replayed, err := racedet.ReplayTraceData(eventTrace.Bytes(), racedet.Options{}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  off-line replay reports %d racy object(s) — same as on-the-fly (%d)\n",
		replayed.RacyObjects, res.RacyObjects)
	pairs, err := racedet.FullRace(bytes.NewReader(eventTrace.Bytes()), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  FullRace reconstruction: %d racing pair(s) (the raw §2.4 definition,\n", len(pairs))
	fmt.Println("  with no ownership approximation: initialization hand-offs count too)")
	if len(pairs) > 0 {
		fmt.Printf("  first pair:\n    %s\n    %s\n", pairs[0].First, pairs[0].Second)
	}
}
