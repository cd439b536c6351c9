// Package store is a disk-backed, content-hash-addressed result store: the
// spill tier that sits under the simulation service's in-memory LRU. Every
// entry is one file holding the exact payload bytes the service computed
// for a content hash (results under the scenario hash, rendered series
// under the hash#series key), so a daemon restart loses nothing — a spec
// whose result was ever computed on this disk is answered without running
// a simulation, byte-identical to the original response.
//
// Durability is the point, so the write path is paranoid: an entry is
// written to a temporary file, fsynced, and renamed into place, and the
// payload is framed by a fixed header carrying a magic, the key, the
// payload length and a CRC32C checksum. A torn, truncated or bit-flipped
// entry — a crash mid-write, a lying disk — fails verification on read and
// is treated as a miss (and deleted), never served. The store is bounded
// by total payload bytes; when an insert would exceed the bound, the
// least recently accessed entries are evicted first (access order is
// tracked in memory and seeded from file modification times at Open, so
// restarts approximate the pre-restart recency order).
//
// The store is safe for concurrent use. A Get never blocks on another
// entry's disk write, and a reader racing an eviction of the same entry
// observes a clean miss, not an error — cache semantics throughout.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// entryExt is the filename extension of a committed entry. Temporary files
// carry tmpPrefix instead and are swept at Open — a crash between create
// and rename leaves garbage, never a half-visible entry.
const (
	entryExt  = ".res"
	tmpPrefix = ".tmp-"
)

// magic opens every entry file; a file that does not start with it is not
// an entry (or is torn inside the header) and is dropped as corrupt.
var magic = [4]byte{'M', 'N', 'S', '1'}

// castagnoli is the CRC32C table; Castagnoli is hardware-accelerated on
// the platforms the daemon runs on, and a 32-bit checksum is plenty to
// detect torn writes (the threat model is crashes, not adversaries — the
// key itself is already a SHA-256 of the content's spec).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxKeyLen bounds a stored key; keys are content hashes plus a short
// suffix, so anything longer is a caller bug.
const maxKeyLen = 256

// ErrKeyTooLong reports a Put with a key longer than the header can frame.
var ErrKeyTooLong = errors.New("store: key exceeds 256 bytes")

// Store is the disk tier. Construct with Open; the zero value is not
// usable.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*entry // key -> live entry
	head    *entry            // most recently accessed
	tail    *entry            // least recently accessed (next eviction)
	total   int64             // payload bytes of live entries

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	corrupt   atomic.Uint64
	writeErrs atomic.Uint64
}

// entry is one live key's in-memory record, threaded on an intrusive
// doubly linked access list (front = most recent).
type entry struct {
	key        string
	size       int64 // payload bytes
	next, prev *entry
}

// Stats is a point-in-time snapshot of the store's counters and gauges,
// for telemetry exposition.
type Stats struct {
	// Entries and Bytes gauge the live store (payload bytes, excluding
	// header overhead).
	Entries int
	Bytes   int64
	// Hits and Misses count Get outcomes; Evictions counts entries dropped
	// for space; Corrupt counts entries that failed verification on read
	// or at Open and were deleted; WriteErrors counts Puts that failed to
	// commit (the store stays consistent — the entry is simply absent).
	Hits, Misses, Evictions, Corrupt, WriteErrors uint64
}

// Open opens (creating if needed) the store rooted at dir, bounded by
// maxBytes of payload. Committed entries found on disk are verified
// lazily — Open only reads headers, not payloads — and adopted with their
// file modification time as the initial recency order; leftover temporary
// files from a crashed writer are deleted. maxBytes must be positive.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		return nil, fmt.Errorf("store: max bytes must be positive, got %d", maxBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  make(map[string]*entry),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recovered pairs an adopted entry with its modification time for the
// initial recency sort.
type recovered struct {
	e     *entry
	mtime int64
}

// recover scans the directory: temporary files are deleted, committed
// entries have their headers read back (a file whose header does not
// parse, or whose on-disk size disagrees with its framed payload length,
// is corrupt and deleted), and survivors are adopted oldest-first so the
// in-memory access list reproduces the on-disk recency order.
func (s *Store) recover() error {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var found []recovered
	for _, de := range des {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasPrefix(name, tmpPrefix) {
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		if !strings.HasSuffix(name, entryExt) {
			continue
		}
		path := filepath.Join(s.dir, name)
		key, size, err := readHeader(path)
		if err != nil {
			s.corrupt.Add(1)
			os.Remove(path)
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		found = append(found, recovered{
			e:     &entry{key: key, size: size},
			mtime: info.ModTime().UnixNano(),
		})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })
	for _, r := range found {
		if old, ok := s.entries[r.e.key]; ok {
			// Two files claiming one key (renamed under different names
			// cannot happen via Put, but be defensive): keep the newer.
			s.removeLocked(old)
			os.Remove(s.path(old.key))
		}
		s.entries[r.e.key] = r.e
		s.pushFront(r.e)
		s.total += r.e.size
	}
	s.evictLocked()
	return nil
}

// path returns the entry file for a key. Keys are content hashes plus an
// optional #suffix; '#' is the only byte outside the hex alphabet a
// service key carries, and it is mapped to '+' (path-safe on every
// platform the daemon targets). Other unusual bytes would collide only if
// a caller stored both variants of the same key, which no caller does —
// the framed header carries the exact key, so a collision would surface
// as a key mismatch (= corrupt), never as wrong bytes served.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, strings.ReplaceAll(key, "#", "+")+entryExt)
}

// header layout after the magic: keyLen uint16, key, payloadLen uint64,
// crc32c uint32, payload.
const fixedHeader = 4 + 2 + 8 + 4

// readHeader opens an entry file and parses its frame without reading the
// payload, returning the framed key and payload size. The on-disk size
// must match the framed length exactly — a truncated (torn) file fails
// here even before a checksum is computed.
func readHeader(path string) (key string, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	var fixed [6]byte
	if _, err := f.ReadAt(fixed[:], 0); err != nil {
		return "", 0, fmt.Errorf("store: short header: %w", err)
	}
	if [4]byte(fixed[:4]) != magic {
		return "", 0, fmt.Errorf("store: bad magic")
	}
	keyLen := int(binary.LittleEndian.Uint16(fixed[4:6]))
	if keyLen == 0 || keyLen > maxKeyLen {
		return "", 0, fmt.Errorf("store: implausible key length %d", keyLen)
	}
	rest := make([]byte, keyLen+12)
	if _, err := f.ReadAt(rest, 6); err != nil {
		return "", 0, fmt.Errorf("store: short header: %w", err)
	}
	key = string(rest[:keyLen])
	payloadLen := binary.LittleEndian.Uint64(rest[keyLen : keyLen+8])
	info, err := f.Stat()
	if err != nil {
		return "", 0, err
	}
	want := int64(fixedHeader+keyLen) + int64(payloadLen)
	if payloadLen > 1<<62 || info.Size() != want {
		return "", 0, fmt.Errorf("store: size %d disagrees with framed length %d", info.Size(), want)
	}
	return key, int64(payloadLen), nil
}

// Get returns the payload stored under key, or ok=false. A hit promotes
// the entry to most recently accessed. An entry that fails verification —
// wrong magic, framed key mismatch, truncation, checksum mismatch — is
// counted corrupt, deleted, and reported as a miss: a torn write is never
// served.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.moveFront(e)
	}
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	// The read happens outside the lock so one slow disk read cannot
	// serialise the whole service. An eviction racing this read unlinks
	// the file first; the resulting open error is a clean miss.
	payload, err := readVerify(s.path(key), key)
	switch {
	case err == nil:
		s.hits.Add(1)
		return payload, true
	case os.IsNotExist(err):
		// Evicted under us, or removed behind the store's back: forget the
		// entry so the gauges and the byte budget stop counting it — unless
		// a concurrent Put has already replaced it with a committed file.
		s.misses.Add(1)
		s.mu.Lock()
		if s.entries[key] == e {
			s.removeLocked(e)
		}
		s.mu.Unlock()
		return nil, false
	default:
		s.corrupt.Add(1)
		s.misses.Add(1)
		s.dropEntry(key)
		return nil, false
	}
}

// readVerify reads an entry file end to end and verifies its frame: magic,
// framed key (the file must be the entry it is addressed as), length and
// checksum.
func readVerify(path, key string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < fixedHeader || [4]byte(data[:4]) != magic {
		return nil, fmt.Errorf("store: bad magic")
	}
	keyLen := int(binary.LittleEndian.Uint16(data[4:6]))
	if keyLen == 0 || keyLen > maxKeyLen || len(data) < fixedHeader+keyLen {
		return nil, fmt.Errorf("store: torn header")
	}
	if string(data[6:6+keyLen]) != key {
		return nil, fmt.Errorf("store: entry frames key %q, addressed as %q", data[6:6+keyLen], key)
	}
	off := 6 + keyLen
	payloadLen := binary.LittleEndian.Uint64(data[off : off+8])
	sum := binary.LittleEndian.Uint32(data[off+8 : off+12])
	payload := data[fixedHeader+keyLen:]
	if uint64(len(payload)) != payloadLen {
		return nil, fmt.Errorf("store: torn payload: have %d bytes, framed %d", len(payload), payloadLen)
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, fmt.Errorf("store: checksum mismatch")
	}
	return payload, nil
}

// dropEntry removes a (corrupt) entry from the index and the disk.
func (s *Store) dropEntry(key string) {
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.removeLocked(e)
	}
	s.mu.Unlock()
	os.Remove(s.path(key))
}

// removeLocked takes a live entry out of the index and the access list.
// The caller holds mu and decides what happens to the entry's file.
func (s *Store) removeLocked(e *entry) {
	s.unlink(e)
	s.total -= e.size
	delete(s.entries, e.key)
}

// Put stores payload under key, replacing any existing entry, and evicts
// least-recently-accessed entries as needed to respect the byte bound. The
// write is committed — temp file, fsync, rename — before the entry becomes
// visible, so a concurrent Get sees either the old complete entry or the
// new complete entry, never a partial one. A payload larger than the
// store's entire bound is declined silently (storing it would evict
// everything for one entry); a disk error counts in WriteErrors and
// leaves the store consistent.
func (s *Store) Put(key string, payload []byte) error {
	if len(key) == 0 || len(key) > maxKeyLen {
		return ErrKeyTooLong
	}
	if int64(len(payload)) > s.maxBytes {
		return nil
	}
	if err := s.commit(key, payload); err != nil {
		s.writeErrs.Add(1)
		return err
	}
	s.mu.Lock()
	if old, ok := s.entries[key]; ok {
		s.removeLocked(old)
	}
	e := &entry{key: key, size: int64(len(payload))}
	s.entries[key] = e
	s.pushFront(e)
	s.total += e.size
	s.evictLocked()
	s.mu.Unlock()
	return nil
}

// commit writes the framed entry to a temp file, fsyncs it, and renames it
// into place. The rename is atomic on POSIX filesystems, which is what
// lets readers run lock-free against writers.
func (s *Store) commit(key string, payload []byte) error {
	f, err := os.CreateTemp(s.dir, tmpPrefix)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	header := make([]byte, fixedHeader+len(key))
	copy(header[:4], magic[:])
	binary.LittleEndian.PutUint16(header[4:6], uint16(len(key)))
	copy(header[6:], key)
	off := 6 + len(key)
	binary.LittleEndian.PutUint64(header[off:off+8], uint64(len(payload)))
	binary.LittleEndian.PutUint32(header[off+8:off+12], crc32.Checksum(payload, castagnoli))
	_, err = f.Write(header)
	if err == nil {
		_, err = f.Write(payload)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, s.path(key))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// evictLocked drops least-recently-accessed entries until the byte bound
// holds. Callers hold s.mu; file removal happens inline — unlink is fast,
// and doing it under the lock means a concurrent Get of the victim fails
// its open and reports a clean miss instead of racing a half-removed
// index.
func (s *Store) evictLocked() {
	for s.total > s.maxBytes && s.tail != nil {
		victim := s.tail
		s.removeLocked(victim)
		os.Remove(s.path(victim.key))
		s.evictions.Add(1)
	}
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes returns the live payload bytes.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Stats returns a snapshot of the store's counters and gauges.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := len(s.entries), s.total
	s.mu.Unlock()
	return Stats{
		Entries: entries, Bytes: bytes,
		Hits: s.hits.Load(), Misses: s.misses.Load(),
		Evictions: s.evictions.Load(), Corrupt: s.corrupt.Load(),
		WriteErrors: s.writeErrs.Load(),
	}
}

// Access-list surgery. The list is intrusive (entries are the nodes), so
// promotion on the Get path allocates nothing.

func (s *Store) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *Store) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if s.head == e {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if s.tail == e {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *Store) moveFront(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
