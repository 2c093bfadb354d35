package core

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"racedet/internal/rt/trace"
)

// FuzzReplayTrace feeds arbitrary bytes through the whole replay path:
// trace.NewReader, then ReplayTrace under Full on the serial back end.
// Whatever the input, the outcome is a result or a *trace.FormatError,
// never a panic. The seed is a recorded run of a corpus program, so
// mutations start from a well-formed trace and reach the decoder and
// the detector rather than stopping at the magic check. Under plain
// go test only the seed corpus runs; go test -fuzz FuzzReplayTrace
// explores from it.
func FuzzReplayTrace(f *testing.F) {
	src, err := os.ReadFile("../corpus/testdata/double_checked_locking.mj")
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := Full().WithSeed(5)
	cfg.TraceTo = &buf
	if _, err := RunSource("double_checked_locking.mj", string(src), cfg); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		var fe *trace.FormatError
		rd, err := trace.NewReader(data)
		if err != nil {
			if !errors.As(err, &fe) {
				t.Fatalf("NewReader error is %T, want *trace.FormatError: %v", err, err)
			}
			return
		}
		res, err := ReplayTrace(rd, Full(), 1)
		switch {
		case err != nil && !errors.As(err, &fe):
			t.Fatalf("ReplayTrace error is %T, want *trace.FormatError: %v", err, err)
		case err == nil && res == nil:
			t.Fatal("ReplayTrace returned neither a result nor an error")
		}
	})
}
