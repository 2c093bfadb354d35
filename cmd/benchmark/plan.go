package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// Everything the code under test receives is generated here from the
// workload seed: program order, schedule seeds, arrival times and job
// choices. Each purpose draws from its own named stream, so that, for
// example, the traces recorded during set-up do not shift the pass
// order of the measured loop.
func newStream(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// scheduleSeed draws a scheduler seed; 0 would select the fixed
// round-robin schedule, so seeds are drawn from [1, 2^31).
func scheduleSeed(r *rand.Rand) int64 { return r.Int63n(1<<31-1) + 1 }

// passInput is one pass of a closed-loop workload: every program once,
// in Order, each under its own schedule seed.
type passInput struct {
	Order []int
	Seeds []int64 // indexed by program, not by position in Order
}

func nextPass(r *rand.Rand, programs int) passInput {
	in := passInput{Order: r.Perm(programs), Seeds: make([]int64, programs)}
	for i := range in.Seeds {
		in.Seeds[i] = scheduleSeed(r)
	}
	return in
}

// job is one daemon request.
type job struct {
	Program int
	Trace   bool  // replay the program's recorded trace instead of its source
	Edited  bool  // append an unused class, so the fact cache misses
	Seed    int64 // schedule seed of a source job
	EditID  int64
	// Due is the job's arrival time from the start of the open-loop
	// phase (zero in the closed loop).
	Due time.Duration
}

// jobKinds is the number of job kinds: each program as a source job and
// as a trace job.
func jobKinds(programs int) int { return 2 * programs }

// kind indexes the job's kind: source jobs first, then trace jobs.
func (j job) kind(programs int) int {
	if j.Trace {
		return programs + j.Program
	}
	return j.Program
}

func kindName(k int, progs []program) string {
	if k >= len(progs) {
		return progs[k-len(progs)].name + "/trace"
	}
	return progs[k].name + "/source"
}

// jobStream deals jobs from shuffled decks. A deck holds, per program,
// two plain source jobs, one edited source job and one trace job: 75%
// source jobs, a third of them edited, and 25% trace jobs. Dealing
// whole decks keeps the mix exact over every twenty jobs, so the
// measured capacity does not wander with the luck of the draw.
type jobStream struct {
	r        *rand.Rand
	programs int
	deck     []job
}

func newJobStream(r *rand.Rand, programs int) *jobStream {
	return &jobStream{r: r, programs: programs}
}

func (s *jobStream) next() job {
	if len(s.deck) == 0 {
		for p := 0; p < s.programs; p++ {
			s.deck = append(s.deck,
				job{Program: p}, job{Program: p}, job{Program: p, Edited: true}, job{Program: p, Trace: true})
		}
		s.r.Shuffle(len(s.deck), func(i, k int) { s.deck[i], s.deck[k] = s.deck[k], s.deck[i] })
	}
	j := s.deck[0]
	s.deck = s.deck[1:]
	if !j.Trace {
		j.Seed = scheduleSeed(s.r)
	}
	if j.Edited {
		j.EditID = s.r.Int63n(1 << 40)
	}
	return j
}

// arrivals deals the open-loop jobs due within d: a Poisson process at
// rate jobs per second.
func arrivals(s *jobStream, rate float64, d time.Duration) []job {
	var out []job
	t := 0.0
	for {
		t += s.r.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		j := s.next()
		j.Due = due
		out = append(out, j)
	}
}

// editedSource appends an unused class to src. The class changes the
// program digest, so the job misses the daemon's fact cache and stores
// a new entry, but it is never instantiated, so the verdict is unchanged.
func editedSource(src string, id int64) string {
	return src + fmt.Sprintf(`
class BenchEdit%d {
    int mark;

    void touch() {
        mark = %d;
    }
}
`, id, id%1000003)
}
