package serve

import (
	"sync"

	"ppamcp/internal/core"
	"ppamcp/internal/graph"
)

// poolKey identifies interchangeable sessions: same array side, same word
// width, same fabric shape. Any graph with n vertices whose costs fit in
// h bits can run on any session with this key after a Reload. The
// fabric-relevant options are part of the key: a block-mapped session
// (PhysicalSide) simulates a different machine than a direct one, and a
// reference-kernel session reports the same answers on a different host
// path — handing either out for the other would silently change the
// metrics and performance a caller observes.
type poolKey struct {
	n    int
	h    uint
	phys int  // virtualization physical side; 0 = direct execution
	ref  bool // interpretive reference kernels forced
}

// keyFor normalizes the fabric options the way core.NewSession applies
// them: PhysicalSide engages block-mapped execution only when it is
// positive, smaller than n, and divides n — otherwise the session runs
// direct and must pool with the direct ones.
func keyFor(n int, h uint, opt core.Options) poolKey {
	phys := opt.PhysicalSide
	if phys <= 0 || phys >= n || n%phys != 0 {
		phys = 0
	}
	return poolKey{n: n, h: h, phys: phys, ref: opt.ReferenceKernels}
}

// Pool recycles warm core.Sessions across requests. A checkout either
// pops an idle session and re-loads it with the request's weights (hit:
// one weight DMA, no allocation) or builds a fresh machine (miss: the
// cost the pool exists to amortize). Sessions are returned after use
// unless the pool is full or the session is suspect (a panicked solve).
type Pool struct {
	mu           sync.Mutex
	idle         map[poolKey][]*core.Session
	total        int
	cap          int
	physicalSide int

	hits, misses, discards int64
}

// PoolStats is a snapshot of pool behaviour for /metrics.
type PoolStats struct {
	Hits, Misses, Discards int64
	Idle                   int
}

// NewPool returns a pool keeping at most cap idle sessions in total.
// physicalSide, when nonzero, builds block-mapped sessions (core
// Options.PhysicalSide) for graphs whose vertex count it divides; other
// graphs fall back to direct execution, under a distinct pool key. The
// second argument is ignored: it was a per-session ring fan-out, which no
// pooled session reaches (they all run core's fused DP lane, which issues
// no bus transaction). It stays so existing callers keep compiling.
func NewPool(cap, _, physicalSide int) *Pool {
	return &Pool{
		idle:         make(map[poolKey][]*core.Session),
		cap:          cap,
		physicalSide: physicalSide,
	}
}

// options returns the session options the pool builds for an n-vertex
// graph at width h, with PhysicalSide already normalized so that
// core.NewSession never sees a non-divisor side.
func (p *Pool) options(n int, h uint) core.Options {
	opt := core.Options{Bits: h, PhysicalSide: p.physicalSide}
	opt.PhysicalSide = keyFor(n, h, opt).phys
	return opt
}

// Get checks out a session for g at word width h, reporting whether it
// was a pool hit. The caller owns the session until Put.
func (p *Pool) Get(g *graph.Graph, h uint) (*core.Session, bool, error) {
	opt := p.options(g.N, h)
	key := keyFor(g.N, h, opt)
	p.mu.Lock()
	if list := p.idle[key]; len(list) > 0 {
		s := list[len(list)-1]
		list[len(list)-1] = nil
		p.idle[key] = list[:len(list)-1]
		p.total--
		p.mu.Unlock()
		if err := s.Reload(g); err != nil {
			// The graph does not fit this width (e.g. weights too wide
			// for h). A fresh build would fail identically; report it.
			s.Close()
			p.mu.Lock()
			p.discards++
			p.mu.Unlock()
			return nil, false, err
		}
		p.mu.Lock()
		p.hits++
		p.mu.Unlock()
		return s, true, nil
	}
	p.misses++
	p.mu.Unlock()
	s, err := core.NewSession(g, opt)
	if err != nil {
		return nil, false, err
	}
	return s, false, nil
}

// Put returns a session to the pool; when the pool is full the session is
// closed (stopping its ring workers) and dropped for the GC.
func (p *Pool) Put(s *core.Session) {
	// Key by the session's own build options, not the pool's current
	// configuration: a session checked out under one fabric shape must
	// come back under the same one.
	key := keyFor(s.N(), s.Bits(), s.Options())
	p.mu.Lock()
	if p.total >= p.cap {
		p.discards++
		p.mu.Unlock()
		s.Close()
		return
	}
	p.idle[key] = append(p.idle[key], s)
	p.total++
	p.mu.Unlock()
}

// Close drains the pool, closing every idle session (deterministic ring
// worker shutdown). The pool stays usable; subsequent Gets miss.
func (p *Pool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = make(map[poolKey][]*core.Session)
	p.total = 0
	p.mu.Unlock()
	for _, list := range idle {
		for _, s := range list {
			s.Close()
		}
	}
}

// Stats returns a consistent snapshot.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Hits: p.hits, Misses: p.misses, Discards: p.discards, Idle: p.total}
}
