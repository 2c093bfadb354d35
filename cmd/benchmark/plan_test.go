package main

import (
	"reflect"
	"testing"
	"time"

	"racedet/internal/core"
	"racedet/internal/static/factcache"
)

// generated is a prefix of every input stream a run draws from.
func generated(seed int64) []any {
	var out []any
	for _, name := range []string{"live.passes", "replay.passes", "compile.passes"} {
		r := newStream(seed, name)
		for i := 0; i < 20; i++ {
			out = append(out, nextPass(r, len(programNames)))
		}
	}
	for _, name := range []string{"replay.record", "daemon.record", "daemon.warm", "compile.check", "probe"} {
		r := newStream(seed, name)
		for range programNames {
			out = append(out, scheduleSeed(r))
		}
	}
	closed := newJobStream(newStream(seed, "daemon.closed"), len(programNames))
	for i := 0; i < 50; i++ {
		out = append(out, closed.next())
	}
	open := newJobStream(newStream(seed, "daemon.open"), len(programNames))
	out = append(out, arrivals(open, daemonRate, 3*time.Second))
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := generated(7), generated(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different input sequences")
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	a, b := generated(7), generated(8)
	for i := range a {
		if reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("input %d is the same under seeds 7 and 8: %+v", i, a[i])
		}
	}
}

func TestJobDeckMix(t *testing.T) {
	s := newJobStream(newStream(1, "mix"), len(programNames))
	perKind := map[int]int{}
	source, edited, traces := 0, 0, 0
	for i := 0; i < 20*len(programNames); i++ {
		j := s.next()
		perKind[j.kind(len(programNames))]++
		switch {
		case j.Trace:
			traces++
		case j.Edited:
			edited++
			source++
		default:
			source++
		}
	}
	n := 20 * len(programNames)
	if source*4 != 3*n || traces*4 != n || edited*3 != source {
		t.Errorf("mix: %d source (%d edited), %d trace of %d jobs; want 75%% source, a third edited, 25%% trace",
			source, edited, traces, n)
	}
	if len(perKind) != jobKinds(len(programNames)) {
		t.Errorf("%d job kinds drawn, want %d", len(perKind), jobKinds(len(programNames)))
	}
}

func TestArrivalRate(t *testing.T) {
	jobs := arrivals(newJobStream(newStream(3, "rate"), len(programNames)), 50, 20*time.Second)
	if n := len(jobs); n < 900 || n > 1100 {
		t.Errorf("%d arrivals in 20s at 50/s", n)
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Due < jobs[i-1].Due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
}

// Edited daemon sources must miss the fact cache (a different program
// digest) yet compile and keep the program's verdict.
func TestEditedSourcesKeepVerdict(t *testing.T) {
	progs, err := loadPrograms()
	if err != nil {
		t.Fatal(err)
	}
	s := newJobStream(newStream(5, "daemon.open"), len(progs))
	for i := 0; i < 2*len(progs); {
		j := s.next()
		if !j.Edited {
			continue
		}
		i++
		p := progs[j.Program]
		src := editedSource(p.source, j.EditID)
		pipe, err := core.Compile(p.file, src, core.Full())
		if err != nil {
			t.Fatalf("%s edited with %d: %v", p.name, j.EditID, err)
		}
		rr, err := pipe.RunConfig(core.Full().WithSeed(j.Seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.checkRun(rr); err != nil {
			t.Errorf("edited %s: %v", p.name, err)
		}
		plain, _, err := lowerReplica(p.file, p.source, core.Full(), runBare)
		if err != nil {
			t.Fatal(err)
		}
		edited, _, err := lowerReplica(p.file, src, core.Full(), runBare)
		if err != nil {
			t.Fatal(err)
		}
		fc := factcache.Open(t.TempDir(), factcacheFingerprint(core.Full()))
		if fc.ProgramDigest(plain.Prog) == fc.ProgramDigest(edited.Prog) {
			t.Errorf("edited %s has the plain program's fact-cache digest", p.name)
		}
	}
}
