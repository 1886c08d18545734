package rescache

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"voltstack/internal/telemetry"
)

// cacheMetrics is the cache instrumentation. The mem* / disk* counters
// break every lookup down by tier, so the memory hit ratio, the disk
// tier's contribution and the spill rate are each readable on their own
// on /metrics; misses counts the lookups that missed both tiers. New creates the instruments, so a process that
// builds no cache carries none of them.
type cacheMetrics struct {
	misses, diskErrors, shared *telemetry.Counter
	memBytes, memEntries       *telemetry.Gauge
	computeSecs                *telemetry.Histogram

	// Per-tier breakdown. Memory: hits, lookups falling past the LRU,
	// LRU evictions. Disk: hits, lookups that consulted the disk tier and
	// missed, spills (values written through to disk).
	memHits, memMisses, memEvicts    *telemetry.Counter
	diskHits, diskMisses, diskSpills *telemetry.Counter
}

// newCacheMetrics returns the process registry's rescache_* instruments,
// creating them on first use; every cache of a process shares them.
func newCacheMetrics() *cacheMetrics {
	return &cacheMetrics{
		misses:      telemetry.NewCounter("rescache_misses_total"),
		diskErrors:  telemetry.NewCounter("rescache_disk_errors_total"),
		shared:      telemetry.NewCounter("rescache_singleflight_shared_total"),
		memBytes:    telemetry.NewGauge("rescache_mem_bytes"),
		memEntries:  telemetry.NewGauge("rescache_mem_entries"),
		computeSecs: telemetry.NewHistogram("rescache_compute_seconds"),
		memHits:     telemetry.NewCounter("rescache_mem_hits_total"),
		memMisses:   telemetry.NewCounter("rescache_mem_misses_total"),
		memEvicts:   telemetry.NewCounter("rescache_mem_evictions_total"),
		diskHits:    telemetry.NewCounter("rescache_disk_hits_total"),
		diskMisses:  telemetry.NewCounter("rescache_disk_misses_total"),
		diskSpills:  telemetry.NewCounter("rescache_disk_spills_total"),
	}
}

// Config bounds a cache.
type Config struct {
	// MaxEntries caps the in-memory LRU entry count; <= 0 selects 4096.
	MaxEntries int
	// MaxBytes caps the summed value size held in memory; <= 0 selects
	// 256 MiB. Values larger than the whole budget are stored on disk (if
	// configured) but not pinned in memory.
	MaxBytes int64
	// Dir, when non-empty, enables the disk tier: every stored value is
	// also written under Dir (one file per key, written via temp+rename so
	// readers never see partial content), and lookups fall back to it
	// after an in-memory miss — including across process restarts, which
	// is what makes daemon resume replay completed work instead of
	// recomputing it.
	Dir string
}

func (c Config) maxEntries() int {
	if c.MaxEntries <= 0 {
		return 4096
	}
	return c.MaxEntries
}

func (c Config) maxBytes() int64 {
	if c.MaxBytes <= 0 {
		return 256 << 20
	}
	return c.MaxBytes
}

// Cache is a content-addressed byte cache: an in-memory LRU in front of an
// optional disk tier, with singleflight deduplication of concurrent
// computations for the same key. All methods are safe for concurrent use.
// Returned byte slices are shared and must be treated as read-only.
type Cache struct {
	cfg Config
	m   *cacheMetrics

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	bytes int64

	flightMu sync.Mutex
	flight   map[string]*flightCall
}

type entry struct {
	key string
	val []byte
}

type flightCall struct {
	done chan struct{}
	val  []byte
	err  error
}

// New returns a cache with the given bounds, creating the disk directory
// when one is configured.
func New(cfg Config) (*Cache, error) {
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("rescache: cache dir: %w", err)
		}
	}
	return &Cache{
		cfg:    cfg,
		m:      newCacheMetrics(),
		ll:     list.New(),
		items:  map[string]*list.Element{},
		flight: map[string]*flightCall{},
	}, nil
}

// Get returns the cached value for key, consulting memory then disk. A
// disk hit is promoted back into the memory LRU.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		val := el.Value.(*entry).val
		c.mu.Unlock()
		c.m.memHits.Add(1)
		return val, true
	}
	c.mu.Unlock()
	c.m.memMisses.Add(1)
	if c.cfg.Dir != "" {
		if val, err := os.ReadFile(c.diskPath(key)); err == nil {
			c.m.diskHits.Add(1)
			c.putMem(key, val)
			return val, true
		}
		c.m.diskMisses.Add(1)
	}
	c.m.misses.Add(1)
	return nil, false
}

// Put stores val under key in memory and, when configured, on disk.
func (c *Cache) Put(key string, val []byte) {
	c.putMem(key, val)
	if c.cfg.Dir != "" {
		if err := c.writeDisk(key, val); err != nil {
			c.m.diskErrors.Add(1)
		} else {
			c.m.diskSpills.Add(1)
		}
	}
}

func (c *Cache) putMem(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
		c.bytes += int64(len(val))
	}
	for c.ll.Len() > 0 && (c.ll.Len() > c.cfg.maxEntries() || c.bytes > c.cfg.maxBytes()) {
		back := c.ll.Back()
		e := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.val))
		c.m.memEvicts.Add(1)
	}
	c.m.memBytes.Set(float64(c.bytes))
	c.m.memEntries.Set(float64(c.ll.Len()))
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Do returns the value for key, computing it at most once across all
// concurrent callers: a cache hit (memory or disk) returns immediately;
// otherwise the first caller runs compute while later identical callers
// block and share its result. hit reports whether the value was served
// without running compute in this call (a cache hit or a shared flight).
// Errors are not cached — a later call retries the computation.
func (c *Cache) Do(key string, compute func() ([]byte, error)) (val []byte, hit bool, err error) {
	if val, ok := c.Get(key); ok {
		return val, true, nil
	}
	c.flightMu.Lock()
	if call, ok := c.flight[key]; ok {
		c.flightMu.Unlock()
		<-call.done
		if call.err != nil {
			return nil, false, call.err
		}
		c.m.shared.Add(1)
		return call.val, true, nil
	}
	call := &flightCall{done: make(chan struct{})}
	c.flight[key] = call
	c.flightMu.Unlock()

	// Recheck under flight ownership: a Put may have landed between the
	// miss and the flight registration.
	computed := false
	if v, ok := c.Get(key); ok {
		call.val = v
	} else {
		computed = true
		t0 := time.Now()
		call.val, call.err = compute()
		c.m.computeSecs.Since(t0)
		if call.err == nil {
			c.Put(key, call.val)
		}
	}
	c.flightMu.Lock()
	delete(c.flight, key)
	c.flightMu.Unlock()
	close(call.done)
	return call.val, !computed, call.err
}

func (c *Cache) diskPath(key string) string {
	return filepath.Join(c.cfg.Dir, key+".json")
}

func (c *Cache) writeDisk(key string, val []byte) error {
	path := c.diskPath(key)
	tmp, err := os.CreateTemp(c.cfg.Dir, "."+key+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(val); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
