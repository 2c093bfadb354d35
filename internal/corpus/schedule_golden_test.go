package corpus

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"racedet/internal/bench"
	"racedet/internal/core"
)

// scheduleGoldenPath pins, for every paper program and corpus program
// at seeds 1 and 7 under Full, the interpreter's schedule and work
// counters. Any change to step or quantum accounting moves a row.
const scheduleGoldenPath = "testdata/golden/schedules.golden"

// scheduleRow runs one program and renders its pinned row: the work
// counters, the number of slices, and digests of the slice sequence
// and of the program output.
func scheduleRow(t *testing.T, name, src string, seed int64) string {
	t.Helper()
	cfg := core.Full()
	cfg.Seed = seed
	cfg.RecordSchedule = true
	pipe, err := core.Compile(name+".mj", src, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res, err := pipe.Run()
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	sched := sha256.New()
	var buf [12]byte
	for _, s := range res.Schedule.Slices {
		binary.LittleEndian.PutUint64(buf[:8], uint64(s.Thread))
		binary.LittleEndian.PutUint32(buf[8:], uint32(s.Quantum))
		sched.Write(buf[:])
	}
	errText := "-"
	if res.Err != nil {
		errText = fmt.Sprintf("%q", res.Err.Error())
	}
	i := res.Interp
	return fmt.Sprintf("%s seed=%d steps=%d trace_events=%d context_swaps=%d monitor_ops=%d slices=%d schedule=%x output=%x err=%s",
		name, seed, i.Steps, i.TraceEvents, i.ContextSwaps, i.MonitorOps, len(res.Schedule.Slices),
		sched.Sum(nil)[:8], sha256.Sum256([]byte(res.Output)), errText)
}

// TestScheduleGolden compares every row against the checked-in file.
// Regenerate with:
//
//	go test ./internal/corpus/ -run TestScheduleGolden -update
func TestScheduleGolden(t *testing.T) {
	type prog struct{ name, src string }
	var progs []prog
	for _, b := range bench.All() {
		progs = append(progs, prog{b.Name, b.Source()})
	}
	files, err := filepath.Glob("testdata/*.mj")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{strings.TrimSuffix(filepath.Base(f), ".mj"), string(data)})
	}
	var rows []string
	for _, p := range progs {
		for _, seed := range []int64{1, 7} {
			rows = append(rows, scheduleRow(t, p.name, p.src, seed))
		}
	}
	got := strings.Join(rows, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(scheduleGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(scheduleGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	wantRows := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantRows) != len(rows) {
		t.Fatalf("%d rows, golden has %d (regenerate with -update if programs were added)", len(rows), len(wantRows))
	}
	for i := range rows {
		if rows[i] != wantRows[i] {
			t.Errorf("schedule or work changed:\n got %s\nwant %s", rows[i], wantRows[i])
		}
	}
}
