package router

import (
	"container/list"
	"context"
	"strconv"
	"strings"
	"sync"
	"time"

	"ppamcp/internal/serve"
)

// Cache is the bounded front-door result cache: an LRU over rendered
// 200-response bodies keyed by the request's exact bytes (requestKey).
// Because a solve result is a pure function of those bytes, a cached
// body can never be stale; the only cache policy is capacity. Bounded by
// entry count and by total byte footprint, keys included, whichever
// bites first.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	ll         *list.List // front = most recently used
	byKey      map[string]*list.Element
	bytes      int64

	hits, misses, evictions int64
}

type cacheEntry struct {
	key  string
	body []byte
}

// entryOverhead approximates the bookkeeping cost of one entry (list
// element, map slot, headers) for the byte bound.
const entryOverhead = 96

// NewCache returns an LRU holding at most maxEntries entries and
// maxBytes of body+key bytes (either <= 0 disables that bound; both
// disabled means an unbounded cache, so don't).
func NewCache(maxEntries int, maxBytes int64) *Cache {
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		byKey:      make(map[string]*list.Element),
	}
}

// Get returns the cached body for key, promoting it to most recently
// used. The returned slice is shared — callers must not mutate it.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).body, true
	}
	c.misses++
	return nil, false
}

// Put stores body under key and evicts from the cold end until both
// bounds hold again. Bodies that alone exceed the byte bound are not
// stored (they would evict everything for one entry).
func (c *Cache) Put(key string, body []byte) {
	cost := int64(len(body) + len(key) + entryOverhead)
	if c.maxBytes > 0 && cost > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// Identical request bytes mean an identical result; keep the old body.
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, body: body})
	c.byKey[key] = el
	c.bytes += cost
	for (c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes) {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		ent := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.byKey, ent.key)
		c.bytes -= int64(len(ent.body) + len(ent.key) + entryOverhead)
		c.evictions++
	}
}

// requestKey names a solve's answer by the request's exact bytes: the
// raw graph value, NUL, the raw gen value, NUL, the requested bits, then
// the dests in order. The paper's DP is deterministic, so these fix the
// response body, and nothing else in the request (timeout, key order,
// unknown fields) can change it. NUL is a safe separator because a
// valid JSON value holds no raw NUL byte. Two spellings of one graph get
// two keys; each is still answered correctly. The key serves both the
// cache and the single-flight group.
func requestKey(req *serve.SolveRequest) string {
	var b strings.Builder
	b.Grow(len(req.Graph) + len(req.Gen) + 24 + 8*len(req.Dests))
	b.Write(req.Graph)
	b.WriteByte(0)
	b.Write(req.Gen)
	b.WriteByte(0)
	var num [20]byte
	b.Write(strconv.AppendUint(num[:0], uint64(req.Bits), 10))
	for _, d := range req.Dests {
		b.WriteByte(',')
		b.Write(strconv.AppendInt(num[:0], int64(d), 10))
	}
	return b.String()
}

// CacheStats is a consistent snapshot for /metrics.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
	Bytes                   int64
}

// Stats returns a consistent snapshot.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: c.ll.Len(), Bytes: c.bytes,
	}
}

// upstream is one forwarded exchange as seen by the response writer:
// the backend's verbatim body and status plus the headers the router
// passes through.
type upstream struct {
	status     int // 0 = transport failure (err set)
	body       []byte
	backend    string
	retryAfter string // backend's Retry-After header, passed through on 429/503
	latency    time.Duration
	err        error
}

// flightGroup collapses concurrent identical cache misses into one
// upstream call (single flight): the first caller for a key becomes the
// leader and forwards; followers block until the leader finishes and
// share its response. Entries are removed when the flight lands, so a
// failed flight is retried by the next request rather than caching the
// failure.
type flightGroup struct {
	mu        sync.Mutex
	flights   map[string]*flight
	collapsed int64 // followers served without an upstream call
}

type flight struct {
	done chan struct{}
	res  *upstream
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flights: make(map[string]*flight)}
}

// Do runs fn once per key among concurrent callers. shared reports
// whether this caller was a follower. A follower whose ctx expires
// while waiting returns ctx.Err() without cancelling the leader.
func (g *flightGroup) Do(ctx context.Context, key string, fn func() *upstream) (res *upstream, shared bool, err error) {
	g.mu.Lock()
	if f, ok := g.flights[key]; ok {
		g.collapsed++
		g.mu.Unlock()
		select {
		case <-f.done:
			return f.res, true, nil
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	g.flights[key] = f
	g.mu.Unlock()

	f.res = fn()
	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	close(f.done)
	return f.res, false, nil
}

// inFlight returns the open flight for key, if any (test hook).
func (g *flightGroup) inFlight(key string) *flight {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.flights[key]
}

// Collapsed returns the number of followers served by a leader's flight.
func (g *flightGroup) Collapsed() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.collapsed
}
