package durable

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALParse feeds arbitrary bytes to the WAL reader. parse must never
// panic, must report damage only as a *FormatError, and must never
// claim a clean prefix longer than its input. The seeds are the logs
// the durability tests write: whole, torn at the tail, and corrupt in
// the middle.
func FuzzWALParse(f *testing.F) {
	dir := f.TempDir()
	s, _, err := Open(Options{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wal)
	f.Add(wal[:len(wal)-5])
	f.Add(wal[:len(fileMagic)])
	f.Add(wal[:3])
	mid := append([]byte(nil), wal...)
	mid[len(fileMagic)+frameHdr+2] ^= 0xff
	f.Add(mid)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		records, off, err := parse("wal.log", data)
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("parse error %T is not a *FormatError: %v", err, err)
			}
			return
		}
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("parse returned offset %d for %d bytes", off, len(data))
		}
		for _, r := range records {
			if r.Kind != KindAdmit && r.Kind != KindResult {
				t.Fatalf("parse returned a record of kind %q", r.Kind)
			}
		}
	})
}
