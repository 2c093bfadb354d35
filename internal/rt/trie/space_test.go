package trie_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"racedet/internal/bench"
	"racedet/internal/core"
	"racedet/internal/rt/event"
	"racedet/internal/rt/ownership"
	"racedet/internal/rt/trace"
	"racedet/internal/rt/trie"
)

var update = flag.Bool("update", false, "rewrite testdata/packed_space.golden")

const spaceGolden = "testdata/packed_space.golden"

// shippedSink feeds a recorded Full trace to the per-location trie and
// the packed model side by side. It rebuilds the stream the Full
// detector ships to its trie: the interned lockset tracker (join
// pseudolocks included) and the §7 ownership filter, with no §4 cache.
// Leaving the cache out changes nothing the tries see: a cache hit
// stands for an access the trie would discard as weaker, and the
// ownership state of a cached location never changes on a hit.
type shippedSink struct {
	locks  *event.LockTracker
	owner  *ownership.Table
	plain  *trie.Detector
	packed *trie.Packed

	plainRaced, packedRaced map[event.Loc]bool
}

func newShippedSink() *shippedSink {
	return &shippedSink{
		locks:       event.NewLockTrackerInterned(event.NewInterner()),
		owner:       ownership.New(),
		plain:       trie.New(),
		packed:      trie.NewPacked(),
		plainRaced:  map[event.Loc]bool{},
		packedRaced: map[event.Loc]bool{},
	}
}

func (s *shippedSink) ThreadStarted(c, p event.ThreadID) { s.locks.ThreadStarted(c, p) }
func (s *shippedSink) ThreadFinished(t event.ThreadID)   { s.locks.ThreadFinished(t) }
func (s *shippedSink) Joined(a, b event.ThreadID)        { s.locks.Joined(a, b) }
func (s *shippedSink) MonitorEnter(t event.ThreadID, l event.ObjID, d int) {
	s.locks.MonitorEnter(t, l, d)
}
func (s *shippedSink) MonitorExit(t event.ThreadID, l event.ObjID, d int) {
	s.locks.MonitorExit(t, l, d)
}

func (s *shippedSink) Access(a event.Access) {
	if forward, _ := s.owner.Filter(a.Thread, a.Loc); !forward {
		return
	}
	a.Locks = s.locks.Held(a.Thread)
	if race, _ := s.plain.Process(a); race {
		s.plainRaced[a.Loc] = true
	}
	if race, _ := s.packed.Process(a); race {
		s.packedRaced[a.Loc] = true
	}
}

// replayBoth runs src under Full at seed, records the trace, replays it
// through a shippedSink, and checks what the tries must share with the
// live run: the per-location trie's size equals the live detector's,
// its raced locations are the live run's reported locations, and the
// packed model races on exactly the same locations.
func replayBoth(t *testing.T, file, src string, seed int64) *shippedSink {
	t.Helper()
	cfg := core.Full().WithSeed(seed)
	var buf bytes.Buffer
	cfg.TraceTo = &buf
	res, err := core.RunSource(file, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("runtime: %v", res.Err)
	}
	tr, err := trace.NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	s := newShippedSink()
	if _, err := tr.Replay(s, 1); err != nil {
		t.Fatal(err)
	}

	if got, want := s.plain.NodeCount(), res.TrieNodes; got != want {
		t.Errorf("per-location trie: %d nodes, Full run: %d", got, want)
	}
	if got, want := s.plain.LocationCount(), res.TrieLocations; got != want {
		t.Errorf("per-location trie: %d locations, Full run: %d", got, want)
	}
	reported := map[event.Loc]bool{}
	for _, r := range res.Reports {
		reported[r.Access.Loc] = true
	}
	if !reflect.DeepEqual(s.plainRaced, reported) {
		t.Errorf("per-location trie raced on %v, Full run reported %v", s.plainRaced, reported)
	}
	if !reflect.DeepEqual(s.packedRaced, s.plainRaced) {
		t.Errorf("packed model raced on %v, per-location trie on %v", s.packedRaced, s.plainRaced)
	}
	if got, want := s.packed.LocationCount(), s.plain.LocationCount(); got != want {
		t.Errorf("packed model: %d locations, per-location trie: %d", got, want)
	}
	return s
}

// TestPackedTrieSpace reproduces §8.2's space observation on the
// paper's programs: the multi-location packing stores the histories of
// the same shipped stream in fewer trie nodes (the paper reports 7967
// nodes for 6562 tsp locations) with the same verdicts. The rows are
// pinned in testdata/packed_space.golden; -update rewrites it.
func TestPackedTrieSpace(t *testing.T) {
	var rows strings.Builder
	rows.WriteString("# §8.2 trie space over each paper program's Full shipped stream (default seed)\n")
	rows.WriteString("# program locations per_location_nodes packed_nodes per_location_nodes/loc packed_nodes/loc\n")
	for _, b := range bench.All() {
		t.Run(b.Name, func(t *testing.T) {
			s := replayBoth(t, b.Name+".mj", b.Source(), core.Full().Seed)
			locs, plain, packed := s.plain.LocationCount(), s.plain.NodeCount(), s.packed.NodeCount()
			if packed > plain {
				t.Errorf("packed nodes (%d) exceed per-location nodes (%d)", packed, plain)
			}
			fmt.Fprintf(&rows, "%s %d %d %d %.2f %.2f\n", b.Name, locs, plain, packed,
				float64(plain)/float64(max(1, locs)), float64(packed)/float64(max(1, locs)))
		})
	}
	if t.Failed() {
		return
	}
	if *update {
		if err := os.WriteFile(spaceGolden, []byte(rows.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(spaceGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if rows.String() != string(want) {
		t.Errorf("§8.2 space rows changed (-update re-blesses):\ngot:\n%s\nwant:\n%s", rows.String(), want)
	}
}

// TestPackedVerdictsCorpus runs the same replay over the idiom corpus
// at two schedules: the per-location trie matches the live Full run
// and the packed model reports the same raced locations.
func TestPackedVerdictsCorpus(t *testing.T) {
	files, err := filepath.Glob("../../corpus/testdata/*.mj")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus programs: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(f), ".mj")
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				t.Parallel()
				replayBoth(t, name+".mj", string(src), seed)
			})
		}
	}
}
