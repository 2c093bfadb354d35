// Package durable is racedetd's crash-safe job journal: a disk-backed
// write-ahead log that survives kill -9, torn writes, and a full disk
// without ever losing an admitted job silently.
//
// The contract mirrors the in-memory job journal of internal/service
// (every admitted job ends in exactly one counted terminal state), but
// across process lifetimes: an "admit" record is fsync'd to the log
// before the daemon may acknowledge a job, and a "result" record is
// appended when the job reaches a terminal state. On restart the
// daemon replays the log — a job with both records serves its stored
// result (idempotency), a job with only an admit record re-runs (the
// deterministic scheduler makes the re-run verdict byte-identical to
// the lost one), and a job with neither was never acknowledged, so the
// client's retry is the recovery path.
//
// # On-disk format
//
// One file, wal.log, in the state directory:
//
//	magic   8 bytes  "MJWAL1\n\x00"
//	record  4 bytes  payload length (uint32 LE)
//	        4 bytes  CRC-32C (Castagnoli) of the payload (uint32 LE)
//	        N bytes  JSON-encoded Record
//	...
//
// Records are framed, checksummed, and individually fsync'd (in
// SyncAlways mode), so the only states a crash can leave behind are a
// clean prefix of whole records plus, at most, one torn frame at the
// very end.
//
// # Corruption discipline (the trace.FormatError rules)
//
// Open distinguishes the two corruption shapes the same way the binary
// trace reader does:
//
//   - Corrupt tail — a torn frame, a frame extending past EOF, or a
//     checksum mismatch after which no valid record follows. This is
//     what a crash mid-append produces. The log is truncated back to
//     the last whole record, the truncation is counted, and recovery
//     proceeds: a torn admit record means the client never got an
//     acknowledgment, so dropping it is correct.
//   - Corrupt middle — a damaged record with valid records after it.
//     No crash produces this (appends are sequential); it means the
//     file was externally damaged, and silently dropping an
//     acknowledged job would break the durability contract. Open
//     returns a structured *FormatError and the daemon refuses to
//     start, never panics, never guesses.
package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Record kinds.
const (
	KindAdmit  = "admit"  // job acknowledged; Request holds the JobRequest JSON
	KindResult = "result" // job terminal; State + Result hold the outcome
)

// Record is one WAL entry. The payload types (job request, job result)
// are opaque JSON here so this package stays independent of the
// service's wire structs.
type Record struct {
	Kind string `json:"kind"`
	// Job is the admitted-job index the record belongs to.
	Job uint64 `json:"job"`
	// Key is the client-supplied idempotency key, if any. It rides on
	// both record kinds so a compacted log (results only) still
	// supports deduplication.
	Key string `json:"key,omitempty"`
	// Request is the admitted JobRequest (admit records).
	Request json.RawMessage `json:"request,omitempty"`
	// State and Result describe the terminal outcome (result records).
	State  string          `json:"state,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// FormatError reports structural damage in the middle of a WAL — the
// shape a crash cannot produce. It is returned (never panicked) so the
// operator sees exactly where the log stopped making sense.
type FormatError struct {
	Path   string // the damaged file
	Offset int64  // byte offset of the damaged frame
	Msg    string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("durable: %s: corrupt record at offset %d: %s", e.Path, e.Offset, e.Msg)
}

// SyncMode selects the WAL's durability/throughput trade-off.
type SyncMode int

const (
	// SyncAlways fsyncs after every appended record: an acknowledged
	// job survives kill -9 and power loss. The default.
	SyncAlways SyncMode = iota
	// SyncNone leaves flushing to the OS page cache: an acknowledged
	// job survives a daemon crash but not a machine crash.
	SyncNone
)

// DiskFaults is the deterministic fault hook consulted around every
// write and fsync of the log. *faultinject.Plan implements it
// structurally; nil means no injection.
type DiskFaults interface {
	// DiskWrite may fail the next write; partial means "tear it": half
	// the payload reaches the disk before the error.
	DiskWrite(tag string) (partial bool, err error)
	// DiskSync may fail the next fsync.
	DiskSync(tag string) error
}

// Options configures Open.
type Options struct {
	// Dir is the state directory; the log lives at Dir/wal.log.
	Dir string
	// Sync is the append durability mode (default SyncAlways).
	Sync SyncMode
	// Faults installs deterministic disk fault injection (nil in
	// production).
	Faults DiskFaults
}

// Stats is a point-in-time copy of the store's counters.
type Stats struct {
	// Records is the number of whole records currently in the log.
	Records uint64
	// CorruptTailTruncations counts torn tails truncated at Open.
	CorruptTailTruncations uint64
	// AppendErrors counts failed appends (write or fsync).
	AppendErrors uint64
	// FsyncMaxNs is the slowest fsync observed, in nanoseconds.
	FsyncMaxNs int64
	// Compactions counts successful log rewrites.
	Compactions uint64
}

// Recovered is what Open found on disk.
type Recovered struct {
	// Records are the whole records of the log, in append order.
	Records []Record
	// TailTruncated is true when a torn tail was cut off.
	TailTruncated bool
	// TruncatedBytes is how many trailing bytes were discarded.
	TruncatedBytes int64
}

var fileMagic = []byte("MJWAL1\n\x00")

const (
	walName   = "wal.log"
	frameHdr  = 8        // 4-byte length + 4-byte CRC
	maxRecord = 64 << 20 // a record is one job request/result; 64 MiB is absurd headroom
	diskTag   = "wal"    // the faultinject disk= stream tag
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Store is an open WAL. All methods are safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	size   int64 // logical end of the last whole record
	sync   SyncMode
	faults DiskFaults
	stats  Stats
}

// Open replays (and, if needed, repairs) the log under o.Dir and
// returns the live store plus everything recovered. A missing
// directory or file is created; a corrupt middle returns *FormatError
// and no store.
func Open(o Options) (*Store, Recovered, error) {
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, Recovered{}, fmt.Errorf("durable: state dir: %w", err)
	}
	path := filepath.Join(o.Dir, walName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, Recovered{}, fmt.Errorf("durable: read wal: %w", err)
	}

	records, keep, err := parse(path, data)
	if err != nil {
		return nil, Recovered{}, err
	}
	rec := Recovered{
		Records:        records,
		TailTruncated:  keep < int64(len(data)),
		TruncatedBytes: int64(len(data)) - keep,
	}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Recovered{}, fmt.Errorf("durable: open wal: %w", err)
	}
	s := &Store{f: f, path: path, sync: o.Sync, faults: o.Faults}
	s.stats.Records = uint64(len(rec.Records))
	if rec.TailTruncated {
		s.stats.CorruptTailTruncations++
	}
	if rec.TruncatedBytes > 0 {
		if err := f.Truncate(keep); err != nil {
			f.Close()
			return nil, Recovered{}, fmt.Errorf("durable: truncate torn tail: %w", err)
		}
	}
	s.size = keep
	if keep == 0 {
		// Fresh (or reset) log: the magic is durable-write #1, so even
		// the file header follows the fault-injected crash discipline.
		if err := s.writeFrameLocked(fileMagic); err != nil {
			f.Close()
			return nil, Recovered{}, fmt.Errorf("durable: write magic: %w", err)
		}
		s.size = int64(len(fileMagic))
		if err := s.fsyncLocked(); err != nil {
			f.Close()
			return nil, Recovered{}, fmt.Errorf("durable: sync magic: %w", err)
		}
		// Make the file itself durable, not just its contents.
		if err := syncDir(o.Dir); err != nil {
			f.Close()
			return nil, Recovered{}, err
		}
	}
	return s, rec, nil
}

// parse checks the magic and walks the framed records after it. It
// returns the records of the longest clean prefix and the offset where
// that prefix ends; a bad magic or a corrupt middle returns
// *FormatError instead.
func parse(path string, data []byte) ([]Record, int64, error) {
	if len(data) < len(fileMagic) {
		// Empty, or the very first write (the magic itself) was torn:
		// nothing was ever acknowledged from this file, so starting over
		// is safe.
		return nil, 0, nil
	}
	if string(data[:len(fileMagic)]) != string(fileMagic) {
		return nil, 0, &FormatError{Path: path, Offset: 0, Msg: "bad file magic"}
	}
	var records []Record
	off := int64(len(fileMagic))
	size := int64(len(data))
	for off < size {
		rec, next, ok := parseFrame(data, off)
		if !ok {
			// Damaged frame. Crash damage can only be terminal, so probe
			// the remainder: any whole valid record after the damage
			// proves this is a corrupt middle, not a torn tail.
			if skip, valid := probeAfter(data, off); valid {
				return nil, 0, &FormatError{
					Path:   path,
					Offset: off,
					Msg: fmt.Sprintf("damaged frame followed by %d valid record(s) — externally corrupted, not a torn tail",
						skip),
				}
			}
			return records, off, nil
		}
		records = append(records, rec)
		off = next
	}
	return records, off, nil
}

// parseFrame decodes one frame at off. ok is false for any damage:
// header torn, frame past EOF, insane length, checksum mismatch, or
// undecodable payload.
func parseFrame(data []byte, off int64) (Record, int64, bool) {
	size := int64(len(data))
	if size-off < frameHdr {
		return Record{}, 0, false
	}
	n := int64(binary.LittleEndian.Uint32(data[off:]))
	sum := binary.LittleEndian.Uint32(data[off+4:])
	if n > maxRecord || off+frameHdr+n > size {
		return Record{}, 0, false
	}
	payload := data[off+frameHdr : off+frameHdr+n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return Record{}, 0, false
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, 0, false
	}
	if rec.Kind != KindAdmit && rec.Kind != KindResult {
		return Record{}, 0, false
	}
	return rec, off + frameHdr + n, true
}

// probeAfter looks past a damaged frame for surviving records with a
// byte-by-byte resync: a flipped length byte desynchronizes the
// stream (the claimed frame end can overshoot real records), so every
// offset after the damage is a candidate, and any frame whose
// checksum validates over a decodable record proves records survived
// the damage. A random 4-byte CRC match over garbage is a 2^-32
// accident; a WAL that needs the probe at all is already damaged, so
// erring toward the structured refusal is the safe direction.
func probeAfter(data []byte, off int64) (count int, valid bool) {
	size := int64(len(data))
	for cand := off + 1; cand < size; cand++ {
		if _, next, ok := parseFrame(data, cand); ok {
			count = 1
			for next < size {
				_, n2, ok := parseFrame(data, next)
				if !ok {
					break
				}
				count++
				next = n2
			}
			return count, true
		}
	}
	return 0, false
}

// Append frames, writes, and (in SyncAlways mode) fsyncs one record.
// On failure the file is rolled back to the previous record boundary —
// a failed append never leaves a torn frame for the next Open to
// repair unless the process dies before the rollback (which is exactly
// the torn-tail case Open handles).
func (s *Store) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("durable: encode record: %w", err)
	}
	if len(payload) > maxRecord {
		return fmt.Errorf("durable: record is %d bytes, above the %d-byte bound", len(payload), maxRecord)
	}
	frame := make([]byte, frameHdr+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHdr:], payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeFrameLocked(frame); err != nil {
		s.stats.AppendErrors++
		// Best-effort rollback of any torn bytes; if even this fails the
		// next Open truncates the torn tail itself.
		_ = s.f.Truncate(s.size)
		return err
	}
	if s.sync == SyncAlways {
		if err := s.fsyncLocked(); err != nil {
			s.stats.AppendErrors++
			// Post-fsync-failure page-cache state is unknowable; roll the
			// logical end back and refuse the record.
			_ = s.f.Truncate(s.size)
			return err
		}
	}
	s.size += int64(len(frame))
	s.stats.Records++
	return nil
}

// writeFrameLocked writes b at the logical end of the log, consulting
// the disk fault hook first. A partial (torn) injected failure writes
// half the bytes before reporting the error, exactly like a real torn
// page.
func (s *Store) writeFrameLocked(b []byte) error {
	if s.faults != nil {
		partial, err := s.faults.DiskWrite(diskTag)
		if err != nil {
			if partial {
				s.f.WriteAt(b[:len(b)/2], s.size)
			}
			return fmt.Errorf("durable: write: %w", err)
		}
	}
	if _, err := s.f.WriteAt(b, s.size); err != nil {
		return fmt.Errorf("durable: write: %w", err)
	}
	return nil
}

func (s *Store) fsyncLocked() error {
	start := time.Now()
	if s.faults != nil {
		if err := s.faults.DiskSync(diskTag); err != nil {
			return fmt.Errorf("durable: fsync: %w", err)
		}
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	if ns := time.Since(start).Nanoseconds(); ns > s.stats.FsyncMaxNs {
		s.stats.FsyncMaxNs = ns
	}
	return nil
}

// Compact atomically rewrites the log to hold exactly keep, via the
// write-temp-then-rename discipline: the old log stays valid until the
// rename, so a crash at any point leaves either the old or the new
// log, never a mix. On error the store keeps operating on the old log.
func (s *Store) Compact(keep []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	tmp := s.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: compact: %w", err)
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("durable: compact: %w", err)
	}
	buf := append([]byte(nil), fileMagic...)
	for _, rec := range keep {
		payload, err := json.Marshal(rec)
		if err != nil {
			return fail(err)
		}
		var hdr [frameHdr]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
		buf = append(buf, hdr[:]...)
		buf = append(buf, payload...)
	}
	if _, err := f.Write(buf); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: compact: %w", err)
	}
	if err := syncDir(filepath.Dir(s.path)); err != nil {
		return err
	}
	// The old handle points at the unlinked inode; swap to the new log.
	nf, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("durable: compact: reopen: %w", err)
	}
	s.f.Close()
	s.f = nf
	s.size = int64(len(buf))
	s.stats.Records = uint64(len(keep))
	s.stats.Compactions++
	return nil
}

// Stats returns a copy of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close fsyncs (in SyncAlways mode) and closes the log file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sync == SyncAlways {
		s.f.Sync()
	}
	return s.f.Close()
}

// syncDir fsyncs a directory so a just-created or just-renamed file
// survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: sync dir: %w", err)
	}
	return nil
}
