// Package cache is the campaign server's content-addressed result
// store. A result key is the SHA-256 of everything the simulation output
// is a function of — canonical machine-spec JSON, root seed, experiment
// id, quick/markdown mode, and code version — so two requests share a
// key exactly when PRs 1–5's determinism contract guarantees them
// byte-identical results. GetOrCompute memoizes on that key with
// singleflight coalescing (N concurrent identical submissions cost one
// simulation), an LRU byte budget, and optional write-through disk
// persistence that survives restarts.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
)

// Key addresses one result: the hex SHA-256 of the request's identity.
type Key string

// KeyInputs is everything a cached result is a function of. SpecJSON
// must be the canonical machine.Dump rendering; CodeVersion pins the
// simulator build so a code change never serves stale bytes.
type KeyInputs struct {
	SpecJSON    []byte
	Seed        int64
	Experiment  string
	Quick       bool
	Markdown    bool
	CodeVersion string
}

// ResultKey derives the content address: the SHA-256 of the inputs'
// pre-image.
func ResultKey(in KeyInputs) Key {
	sum := sha256.Sum256(keyPreimage(in))
	return Key(hex.EncodeToString(sum[:]))
}

// keyPreimage encodes the inputs for hashing. Variable-length fields are
// length-prefixed so no two distinct input tuples share a pre-image by
// concatenation (e.g. experiment "a" + version "bc" vs "ab" + "c");
// FuzzResultKey decodes every pre-image back to its inputs.
func keyPreimage(in KeyInputs) []byte {
	buf := make([]byte, 0, 8+len(in.SpecJSON)+8+8+len(in.Experiment)+2+8+len(in.CodeVersion))
	buf = appendField(buf, in.SpecJSON)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(in.Seed))
	buf = appendField(buf, []byte(in.Experiment))
	buf = append(buf, flag(in.Quick), flag(in.Markdown))
	return appendField(buf, []byte(in.CodeVersion))
}

// appendField appends b with its length as a little-endian uint64 prefix.
func appendField(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(b)))
	return append(buf, b...)
}

func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Outcome says how GetOrCompute satisfied a request.
type Outcome string

const (
	// Miss: this call ran the computation.
	Miss Outcome = "miss"
	// Hit: the bytes were already in memory (or on disk).
	Hit Outcome = "hit"
	// Coalesced: an identical computation was already in flight and this
	// call waited for its result instead of starting another.
	Coalesced Outcome = "coalesced"
)

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits      int64 `json:"hits"`
	DiskHits  int64 `json:"diskHits"` // subset of Hits served from the persistence dir
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Budget    int64 `json:"budget"`
}

type entry struct {
	key   Key
	bytes []byte
}

// call is one in-flight computation other requests coalesce onto.
type call struct {
	done  chan struct{}
	bytes []byte
	err   error
}

// Cache is safe for concurrent use. Computations run outside the lock.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	order   *list.List // front = most recently used; values are *entry
	entries map[Key]*list.Element
	calls   map[Key]*call
	dir     string // "" = memory only
	stats   Stats
}

// New builds a cache bounded to budgetBytes of result bytes (<= 0 means
// unbounded). If dir is non-empty, results are also written there as
// <key> files and misses consult the directory before computing, so a
// restarted server keeps its accumulated campaign.
func New(budgetBytes int64, dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: persistence dir: %w", err)
		}
	}
	return &Cache{
		budget:  budgetBytes,
		order:   list.New(),
		entries: make(map[Key]*list.Element),
		calls:   make(map[Key]*call),
		dir:     dir,
	}, nil
}

// GetOrCompute returns the bytes addressed by key, running compute only
// if no memory entry, disk entry, or in-flight identical computation can
// satisfy the request. The returned slice must not be modified by the
// caller. Errors are not cached: every request that finds no usable
// result gets its own computation attempt. A compute that panics counts
// as one that failed: its waiters get the error, and the panic's stack
// goes to the log.
func (c *Cache) GetOrCompute(key Key, compute func() ([]byte, error)) ([]byte, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.stats.Hits++
		b := el.Value.(*entry).bytes
		c.mu.Unlock()
		return b, Hit, nil
	}
	if cl, ok := c.calls[key]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		<-cl.done
		return cl.bytes, Coalesced, cl.err
	}
	cl := &call{done: make(chan struct{})}
	c.calls[key] = cl
	c.mu.Unlock()

	outcome := Miss
	if b, ok := c.readDisk(key); ok {
		cl.bytes = b
		outcome = Hit
	} else {
		cl.bytes, cl.err = recovered(compute)
	}

	c.mu.Lock()
	delete(c.calls, key)
	switch {
	case cl.err != nil:
		c.stats.Misses++
	case outcome == Hit:
		c.stats.Hits++
		c.stats.DiskHits++
		c.insertLocked(key, cl.bytes, false)
	default:
		c.stats.Misses++
		c.insertLocked(key, cl.bytes, c.dir != "")
	}
	c.mu.Unlock()
	close(cl.done)
	return cl.bytes, outcome, cl.err
}

// recovered runs compute, turning a panic into an error so the
// in-flight call still completes and is removed.
func recovered(compute func() ([]byte, error)) (b []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("cache: compute panicked: %v\n%s", p, debug.Stack())
			b, err = nil, fmt.Errorf("cache: compute panicked: %v", p)
		}
	}()
	return compute()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Bytes = c.used
	s.Budget = c.budget
	return s
}

// insertLocked adds the entry and evicts from the LRU tail until the
// byte budget holds. An entry bigger than the whole budget is served but
// not retained (retaining it would evict everything else for a result
// that can never fit alongside any other). Persistence is write-through
// and best-effort: a failed write leaves the memory entry intact.
func (c *Cache) insertLocked(key Key, b []byte, persist bool) {
	if _, ok := c.entries[key]; ok {
		return
	}
	if persist {
		c.writeDisk(key, b)
	}
	if c.budget > 0 && int64(len(b)) > c.budget {
		return
	}
	c.entries[key] = c.order.PushFront(&entry{key: key, bytes: b})
	c.used += int64(len(b))
	for c.budget > 0 && c.used > c.budget {
		tail := c.order.Back()
		if tail == nil {
			break
		}
		e := tail.Value.(*entry)
		c.order.Remove(tail)
		delete(c.entries, e.key)
		c.used -= int64(len(e.bytes))
		c.stats.Evictions++
	}
}

func (c *Cache) path(key Key) string {
	// Keys are hex SHA-256 (filesystem-safe); anything else would be a
	// programming error, but quote defensively anyway.
	name := string(key)
	if len(name) != 64 {
		name = strconv.Quote(name)
	}
	return filepath.Join(c.dir, name)
}

func (c *Cache) readDisk(key Key) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	return b, true
}

// writeDisk persists atomically (tmp + rename) so a crashed write never
// leaves a truncated result a future run would serve.
func (c *Cache) writeDisk(key Key, b []byte) {
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(name)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, c.path(key)); err != nil {
		os.Remove(name)
	}
}
