// The result store: a bounded, content-addressed cache of finished job
// reports.  The key is a digest of everything that determines a job's
// outcome — the exact source text, the seed, and every search option —
// so a hit can be served as the completed report of a new submission
// with no re-execution, and (because reports deliberately contain only
// deterministic fields) the served bytes are identical to what a fresh
// run would have produced.  Capacity is a hard entry cap with LRU
// eviction: a long-running service's memory stays bounded no matter how
// many distinct programs pass through, and evictions are counted, never
// silent.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"dart/internal/corpus"
	"dart/internal/lru"
)

// DefaultStoreCap bounds the result store when Config.StoreCap is zero.
const DefaultStoreCap = 256

// cacheKey renders the deterministic identity of a submission: the
// digest of the canonical (source, seed, options) encoding.  Two
// submissions with equal keys are guaranteed to produce byte-identical
// reports on a fresh run, which is what licenses serving one from the
// other's cached result.
func cacheKey(src string, seed int64, runs, depth int, random bool, fnTimeout time.Duration) string {
	h := sha256.New()
	fmt.Fprintf(h, "dart-job-v1\nseed=%d\nruns=%d\ndepth=%d\nrandom=%t\nfn_timeout=%d\nsource=%d\n",
		seed, runs, depth, random, fnTimeout.Nanoseconds(), len(src))
	h.Write([]byte(src))
	return hex.EncodeToString(h.Sum(nil))
}

// store is the bounded LRU map from cache key to report bytes, with an
// optional disk spill (a corpus's reports/ area): every put is also
// persisted, and an in-memory miss consults the spill before giving up
// — so a restarted server still serves byte-identical cached reports
// for submissions completed before the restart.  Spill files carry the
// corpus's version+checksum envelope; a corrupt one, or one whose
// payload is not a report validReport admits, reads as a miss and the
// job simply re-executes (its put then overwrites the spill).
type store struct {
	mu        sync.Mutex
	lru       *lru.Cache[[]byte] // nil = in-memory caching off
	spill     *corpus.Corpus     // nil = memory-only
	hits      uint64
	misses    uint64
	evictions uint64
	diskHits  uint64
}

// newStore returns a store holding at most cap reports in memory,
// spilling to the corpus when one is attached; cap <= 0 disables
// in-memory caching (gets still consult the spill when present).
func newStore(cap int, spill *corpus.Corpus) *store {
	s := &store{spill: spill}
	if cap > 0 {
		s.lru = lru.New[[]byte](cap)
	}
	return s
}

// Cache-source labels returned by get (and surfaced on job envelopes).
const (
	cacheSourceMemory = "store"
	cacheSourceDisk   = "corpus-disk"
)

// get returns the cached report for key and where it came from:
// cacheSourceMemory (LRU hit), cacheSourceDisk (loaded from the spill
// and promoted back into the LRU), or "" on a miss.
func (s *store) get(key string) ([]byte, string) {
	s.mu.Lock()
	if s.lru != nil {
		if rep, ok := s.lru.Get(key); ok {
			s.hits++
			s.mu.Unlock()
			return rep, cacheSourceMemory
		}
	}
	s.mu.Unlock()
	if s.spill != nil {
		if rep, ok := s.spill.LoadReport(key); ok && validReport(rep) {
			s.mu.Lock()
			s.diskHits++
			s.insert(key, rep)
			s.mu.Unlock()
			return rep, cacheSourceDisk
		}
	}
	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
	return nil, ""
}

// validReport reports whether spilled bytes can be served as a report:
// job envelopes embed them verbatim, so they must be valid JSON, and on
// one line, because an SSE frame's data cannot span lines.  Reports the
// service marshals always are; a checksummed spill file need not be.
func validReport(b []byte) bool {
	return json.Valid(b) && bytes.IndexAny(b, "\r\n") < 0
}

// put caches report under key as the most recently used entry,
// evicting the least recently used one when the store is full, and
// persists it to the spill.  Re-putting a held key replaces its bytes
// with equal ones (equal keys imply identical reports).
func (s *store) put(key string, report []byte) {
	if s.spill != nil {
		// Spill even when the in-memory cache is off or full: disk is the
		// restart-survival layer, and writes are atomic (tmp+rename).
		_ = s.spill.StoreReport(key, report)
	}
	s.mu.Lock()
	s.insert(key, report)
	s.mu.Unlock()
}

// insert caches report under key with the lock held, counting an
// eviction.
func (s *store) insert(key string, report []byte) {
	if s.lru != nil && s.lru.Put(key, report) {
		s.evictions++
	}
}

// len reports the current entry count.
func (s *store) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lru == nil {
		return 0
	}
	return s.lru.Len()
}

// stats returns the lifetime hit/miss/eviction/disk-hit counters.
func (s *store) stats() (hits, misses, evictions, diskHits uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.evictions, s.diskHits
}
