package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, dir string, max int64) *Store {
	t.Helper()
	s, err := Open(dir, max)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	t.Parallel()
	s := mustOpen(t, t.TempDir(), 1<<20)
	payload := []byte(`{"hash":"abc","result":42}`)
	if err := s.Put("abc123", payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get("abc123")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want payload back", got, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get(missing) reported a hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != int64(len(payload)) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSeriesKeySpills(t *testing.T) {
	t.Parallel()
	s := mustOpen(t, t.TempDir(), 1<<20)
	ndjson := []byte("{\"step\":0}\n{\"step\":1}\n")
	key := "deadbeef#series"
	if err := s.Put(key, ndjson); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, ndjson) {
		t.Fatalf("series round trip failed: %q %v", got, ok)
	}
	// The '#' must not leak into the filename.
	des, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if bytes.ContainsRune([]byte(de.Name()), '#') {
			t.Fatalf("entry filename %q contains '#'", de.Name())
		}
	}
}

// TestRestartRecoversCache is the durability pin: payloads put before a
// "daemon restart" (new Store over the same dir) come back byte-identical.
func TestRestartRecoversCache(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s := mustOpen(t, dir, 1<<20)
	want := map[string][]byte{
		"aaaa":        []byte("payload-a"),
		"bbbb":        bytes.Repeat([]byte("b"), 4096),
		"cccc#series": []byte("{\"s\":0}\n"),
	}
	for k, v := range want {
		if err := s.Put(k, v); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}

	s2 := mustOpen(t, dir, 1<<20)
	if s2.Len() != len(want) {
		t.Fatalf("recovered %d entries, want %d", s2.Len(), len(want))
	}
	for k, v := range want {
		got, ok := s2.Get(k)
		if !ok {
			t.Fatalf("key %s lost across restart", k)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("key %s not byte-identical after restart: got %d bytes, want %d", k, len(got), len(v))
		}
	}
}

// TestTruncatedEntryIsMiss simulates a torn write: an entry file cut short
// at every possible boundary must read as a miss, never as a payload.
func TestTruncatedEntryIsMiss(t *testing.T) {
	t.Parallel()
	for _, cut := range []string{"header", "key", "payload"} {
		cut := cut
		t.Run(cut, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			s := mustOpen(t, dir, 1<<20)
			payload := bytes.Repeat([]byte("x"), 1000)
			if err := s.Put("feedface", payload); err != nil {
				t.Fatal(err)
			}
			path := s.path("feedface")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var n int
			switch cut {
			case "header":
				n = 3 // inside the magic
			case "key":
				n = 8 // inside the framed key
			case "payload":
				n = len(data) - 100
			}
			if err := os.WriteFile(path, data[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("feedface"); ok {
				t.Fatalf("torn entry served: %d bytes", len(got))
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("torn entry not deleted")
			}
			// Recovery over a torn file (simulating restart after the crash)
			// must also drop it.
			if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
				t.Fatal(err)
			}
			s2 := mustOpen(t, dir, 1<<20)
			if _, ok := s2.Get("feedface"); ok {
				t.Fatal("restart adopted a torn entry")
			}
		})
	}
}

// TestChecksumMismatchIsMiss flips a payload bit in place: the length still
// matches, so only the CRC can catch it.
func TestChecksumMismatchIsMiss(t *testing.T) {
	t.Parallel()
	s := mustOpen(t, t.TempDir(), 1<<20)
	payload := bytes.Repeat([]byte("y"), 512)
	if err := s.Put("cafe", payload); err != nil {
		t.Fatal(err)
	}
	path := s.path("cafe")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("cafe"); ok {
		t.Fatal("bit-flipped entry served")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
	}
}

// TestWrongKeyFrameIsMiss renames one entry's file over another key's path:
// the framed key no longer matches the addressed key, so the entry must not
// be served under the wrong hash.
func TestWrongKeyFrameIsMiss(t *testing.T) {
	t.Parallel()
	s := mustOpen(t, t.TempDir(), 1<<20)
	if err := s.Put("key-a", []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key-b", []byte("payload-b")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.path("key-a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path("key-b"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("key-b"); ok {
		t.Fatalf("cross-keyed entry served as key-b: %q", got)
	}
}

// TestVanishedFileDropsEntry: an entry whose file disappeared behind the
// store's back is a miss that also leaves the index, so Len, Bytes and the
// byte budget stop counting it; a later Put of the key stores and serves
// again.
func TestVanishedFileDropsEntry(t *testing.T) {
	t.Parallel()
	s := mustOpen(t, t.TempDir(), 1<<20)
	if err := s.Put("gone", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.path("gone")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("gone"); ok {
		t.Fatal("Get served an entry whose file is gone")
	}
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats after the vanished-file miss = %+v, want no entries, no bytes, one miss", st)
	}
	again := []byte("payload, stored again")
	if err := s.Put("gone", again); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("gone"); !ok || !bytes.Equal(got, again) {
		t.Fatalf("Get after re-Put = %q, %v; want the new payload", got, ok)
	}
	if st := s.Stats(); st.Entries != 1 || st.Bytes != int64(len(again)) {
		t.Fatalf("stats after re-Put = %+v", st)
	}
}

func TestEvictionOldestFirst(t *testing.T) {
	t.Parallel()
	// Bound fits exactly four 100-byte payloads.
	s := mustOpen(t, t.TempDir(), 400)
	pay := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 100) }
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), pay(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok := s.Get("k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	if err := s.Put("k4", pay(4)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k1"); ok {
		t.Fatal("k1 survived eviction; LRU order wrong")
	}
	for _, k := range []string{"k0", "k2", "k3", "k4"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	if st := s.Stats(); st.Evictions != 1 || st.Bytes != 400 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOversizedPayloadDeclined(t *testing.T) {
	t.Parallel()
	s := mustOpen(t, t.TempDir(), 100)
	if err := s.Put("big", bytes.Repeat([]byte("z"), 101)); err != nil {
		t.Fatalf("oversized Put should be a silent decline, got %v", err)
	}
	if s.Len() != 0 {
		t.Fatal("oversized payload was stored")
	}
}

// TestConcurrentReadDuringEvict hammers Get on keys that a writer is
// concurrently evicting via fresh Puts. Every Get must return either the
// exact payload or a clean miss — no errors, no corrupt counts, no torn
// reads. Run with -race.
func TestConcurrentReadDuringEvict(t *testing.T) {
	t.Parallel()
	// Room for ~8 of the 64 keys: every Put evicts.
	s := mustOpen(t, t.TempDir(), 8*128)
	payloadFor := func(i int) []byte {
		return bytes.Repeat([]byte{byte(i)}, 128)
	}
	const keys = 64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			i := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("k%02d", i%keys)
				if got, ok := s.Get(k); ok && !bytes.Equal(got, payloadFor(i%keys)) {
					t.Errorf("torn read on %s: %d bytes", k, len(got))
					return
				}
				i++
			}
		}(g * 7)
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < keys; i++ {
			if err := s.Put(fmt.Sprintf("k%02d", i), payloadFor(i)); err != nil {
				t.Errorf("Put: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if st := s.Stats(); st.Corrupt != 0 {
		t.Fatalf("reads racing eviction counted %d corrupt entries", st.Corrupt)
	}
	if b := s.Bytes(); b > 8*128 {
		t.Fatalf("store over budget: %d bytes", b)
	}
}

// TestRecoverSweepsTempFiles checks a crashed writer's droppings are
// removed at Open and never adopted as entries.
func TestRecoverSweepsTempFiles(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	tmp := filepath.Join(dir, tmpPrefix+"12345")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, 1<<20)
	if s.Len() != 0 {
		t.Fatal("temp file adopted as an entry")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("temp file not swept at Open")
	}
}

// TestRecoverRespectsBound opens a directory holding more bytes than the
// new bound allows; the oldest entries must be evicted at Open.
func TestRecoverRespectsBound(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s := mustOpen(t, dir, 1<<20)
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte("p"), 100)); err != nil {
			t.Fatal(err)
		}
	}
	s2 := mustOpen(t, dir, 250) // room for two
	if n := s2.Len(); n != 2 {
		t.Fatalf("recovered %d entries under a 2-entry bound", n)
	}
}

func TestReplaceSameKey(t *testing.T) {
	t.Parallel()
	s := mustOpen(t, t.TempDir(), 1<<20)
	if err := s.Put("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("newer-payload")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || string(got) != "newer-payload" {
		t.Fatalf("Get after replace = %q, %v", got, ok)
	}
	if st := s.Stats(); st.Entries != 1 || st.Bytes != int64(len("newer-payload")) {
		t.Fatalf("stats after replace = %+v", st)
	}
}

func TestKeyValidation(t *testing.T) {
	t.Parallel()
	s := mustOpen(t, t.TempDir(), 1<<20)
	if err := s.Put("", []byte("x")); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := s.Put(string(bytes.Repeat([]byte("k"), 300)), []byte("x")); err == nil {
		t.Fatal("oversized key accepted")
	}
}
