package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppamcp/internal/graph"
	"ppamcp/internal/serve"
)

// TestCacheLRUEntryBound: the entry bound evicts cold entries in LRU
// order, and Get promotes.
func TestCacheLRUEntryBound(t *testing.T) {
	c := NewCache(3, 0)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	// Touch k0 so k1 is the coldest.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.Put("k3", []byte{3})
	if _, ok := c.Get("k1"); ok {
		t.Error("k1 survived; LRU order not honored")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted unexpectedly", k)
		}
	}
	st := c.Stats()
	if st.Entries != 3 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 3 entries, 1 eviction", st)
	}
}

// TestCacheByteBound: the byte bound evicts until the footprint fits,
// and an entry larger than the whole bound is refused outright.
func TestCacheByteBound(t *testing.T) {
	perEntry := int64(1000 + 2 + entryOverhead) // body + key + overhead
	c := NewCache(0, 3*perEntry)
	body := make([]byte, 1000)
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("b%d", i), body)
	}
	st := c.Stats()
	if st.Entries != 3 {
		t.Errorf("entries = %d, want 3 (byte bound)", st.Entries)
	}
	if st.Bytes > 3*perEntry {
		t.Errorf("bytes = %d exceeds bound %d", st.Bytes, 3*perEntry)
	}
	if _, ok := c.Get("b0"); ok {
		t.Error("oldest entry survived the byte bound")
	}

	c.Put("huge", make([]byte, 4*perEntry))
	if _, ok := c.Get("huge"); ok {
		t.Error("an entry larger than the byte bound was stored")
	}
	if got := c.Stats().Entries; got != 3 {
		t.Errorf("oversized Put disturbed the cache: %d entries", got)
	}
}

// TestSingleFlightCollapse: K concurrent callers for one key produce
// exactly one fn invocation; followers share the leader's result and
// are counted.
func TestSingleFlightCollapse(t *testing.T) {
	g := newFlightGroup()
	var calls atomic.Int64
	release := make(chan struct{})
	const K = 8

	var wg sync.WaitGroup
	results := make([]*upstream, K)
	shared := make([]bool, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, sh, err := g.Do(context.Background(), "key", func() *upstream {
				calls.Add(1)
				<-release // hold the flight open until all followers joined
				return &upstream{status: 200, body: []byte("body")}
			})
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			results[i], shared[i] = res, sh
		}(i)
	}
	// Let the followers pile onto the open flight, then land it.
	for g.Collapsed() < K-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times for %d concurrent callers, want 1", got, K)
	}
	leaders := 0
	for i := range results {
		if results[i] == nil || string(results[i].body) != "body" {
			t.Fatalf("caller %d got %+v", i, results[i])
		}
		if !shared[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d leaders, want 1", leaders)
	}
	if got := g.Collapsed(); got != K-1 {
		t.Errorf("collapsed = %d, want %d", got, K-1)
	}

	// The flight landed: a later caller starts a fresh one (failures are
	// not cached).
	_, sh, _ := g.Do(context.Background(), "key", func() *upstream {
		calls.Add(1)
		return &upstream{status: 200}
	})
	if sh || calls.Load() != 2 {
		t.Errorf("flight entry leaked: shared=%v calls=%d", sh, calls.Load())
	}
}

// TestSingleFlightFollowerDeadline: a follower whose context expires
// while waiting returns the context error without cancelling the
// leader.
func TestSingleFlightFollowerDeadline(t *testing.T) {
	g := newFlightGroup()
	release := make(chan struct{})
	leaderDone := make(chan *upstream, 1)
	go func() {
		res, _, _ := g.Do(context.Background(), "k", func() *upstream {
			<-release
			return &upstream{status: 200}
		})
		leaderDone <- res
	}()
	for g.inFlight("k") == nil {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, sh, err := g.Do(ctx, "k", func() *upstream { return nil })
	if !sh || err == nil {
		t.Fatalf("follower: shared=%v err=%v, want shared deadline error", sh, err)
	}

	close(release)
	if res := <-leaderDone; res == nil || res.status != 200 {
		t.Fatalf("leader was disturbed by follower deadline: %+v", res)
	}
}

// TestRequestKey: the key is a function of the graph and gen bytes, the
// requested bits and the dests in order, and of nothing else.
func TestRequestKey(t *testing.T) {
	key := func(body string) string {
		t.Helper()
		req, err := serve.DecodeSolveRequest([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return requestKey(&req)
	}
	base := key(`{"graph":{"n":3},"dests":[1,2]}`)
	for _, same := range []string{
		`{"dests":[1,2],"graph":{"n":3}}`,
		`{"graph":{"n":3},"dests":[1,2],"timeout_ms":5,"x":[0]}`,
		`{"graph":{"n":3},"dests":[0],"dests":[1,2]}`,
		` { "graph" : {"n":3} , "dests" : [ 1 , 2 ] } `,
	} {
		if key(same) != base {
			t.Errorf("%s: key differs from %s", same, base)
		}
	}
	seen := map[string]string{base: "base"}
	for _, other := range []string{
		`{"graph":{"n":3},"dests":[2,1]}`,
		`{"graph":{"n":3},"dests":[1,2],"bits":8}`,
		`{"graph":{"n":3},"dests":[12]}`,
		`{"graph":{"n":3},"dests":[1,2,0]}`,
		`{"graph":{"n": 3},"dests":[1,2]}`,
		`{"gen":{"n":3},"dests":[1,2]}`,
		`{"graph":{"n":3},"gen":{"n":3},"dests":[1,2]}`,
	} {
		k := key(other)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: same key as %s", other, prev)
		}
		seen[k] = other
	}
}

// hitIntake is the router's intake of a request whose answer is cached:
// the envelope scan, the key and the cache lookup.
func hitIntake(c *Cache, body []byte) bool {
	req, err := serve.DecodeSolveRequest(body)
	if err != nil {
		return false
	}
	_, ok := c.Get(requestKey(&req))
	return ok
}

// warmHitCache returns an n=64 /v1/solve body (as ppabench sends) and
// a cache that holds its answer.
func warmHitCache(tb testing.TB) (*Cache, []byte) {
	gj, err := json.Marshal(graph.GenRandomConnected(64, 0.3, 9, 1))
	if err != nil {
		tb.Fatal(err)
	}
	body := []byte(fmt.Sprintf(`{"graph":%s,"dests":[5,41]}`, gj))
	req, err := serve.DecodeSolveRequest(body)
	if err != nil {
		tb.Fatal(err)
	}
	c := NewCache(32, 64<<20)
	c.Put(requestKey(&req), []byte(`{}`))
	if !hitIntake(c, body) {
		tb.Fatal("warm cache missed")
	}
	return c, body
}

// BenchmarkCacheHitIntake times a cache hit's intake on an n=64 body.
func BenchmarkCacheHitIntake(b *testing.B) {
	c, body := warmHitCache(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !hitIntake(c, body) {
			b.Fatal("warm cache missed")
		}
	}
}

// TestCacheHitIntakeAllocs pins the allocations of a cache hit's intake
// on an n=64 body: the scanner, the dests slice and the key, and nothing
// for the graph.
func TestCacheHitIntakeAllocs(t *testing.T) {
	c, body := warmHitCache(t)
	allocs := testing.AllocsPerRun(50, func() {
		if !hitIntake(c, body) {
			t.Fatal("warm cache missed")
		}
	})
	if allocs > 3 {
		t.Errorf("cache-hit intake of a %d-byte n=64 body: %.0f allocations, want <= 3", len(body), allocs)
	}
}

// TestRouterCacheBoundsRequestBytes sends distinct graphs padded with
// whitespace, so each entry is almost all key. Every request byte the
// router keeps lives in the cache, so the live heap grows by about
// CacheBytes while the padded requests add up to 12 times that.
func TestRouterCacheBoundsRequestBytes(t *testing.T) {
	const (
		pad        = 256 << 10
		requests   = 48
		cacheBytes = 1 << 20
		slack      = 1 << 20 // connections, metrics and the like
	)
	b := newStubBackend(t, false)
	rt := newTestRouter(t, Config{CacheBytes: cacheBytes, MaxBodyBytes: 2 * pad}, b.ts.URL)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := int64(ms.HeapAlloc)
	for i := 0; i < requests; i++ {
		body := fmt.Sprintf(`{"graph":{"n":2%s},"dests":[0]}`, strings.Repeat(" ", pad+i))
		if resp, data := postRouter(t, front, []byte(body)); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, data)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if grown := int64(ms.HeapAlloc) - before; grown > cacheBytes+slack {
		t.Errorf("live heap grew %d bytes over %d requests of %d bytes, want <= %d", grown, requests, pad, cacheBytes+slack)
	}
	cs, _ := rt.CacheStats()
	if cs.Bytes > cacheBytes {
		t.Errorf("cache holds %d bytes, bound %d", cs.Bytes, cacheBytes)
	}
	if cs.Bytes < int64(cs.Entries)*pad || cs.Entries == 0 {
		t.Errorf("cache holds %d bytes in %d entries; keys of %d bytes not counted", cs.Bytes, cs.Entries, pad)
	}
	if cs.Entries+int(cs.Evictions) != requests {
		t.Errorf("%d entries + %d evictions, want %d distinct requests", cs.Entries, cs.Evictions, requests)
	}
	if got := b.solves.Load(); got != requests {
		t.Errorf("backend saw %d solves, want %d", got, requests)
	}
}
