package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ppamcp/internal/core"
	"ppamcp/internal/graph"
	"ppamcp/internal/jsonscan"
	"ppamcp/internal/ppa"
)

// This file is the dynamic-graph session surface: a stateful counterpart
// to the stateless /v1/solve path, built on core.Session.Update/Resolve.
// A client creates a session bound to one graph and a destination set,
// opens a long-lived NDJSON stream, and POSTs weight-delta batches; each
// accepted batch is patched into the resident weight plane (O(k) sparse
// DMA) and the destinations are re-solved warm, with the refreshed rows
// pushed down the stream tagged by the batch's sequence number.
//
// The lifecycle envelope matches the rest of the service: per-session
// update queues bound admission (full queue answers 429), an idle janitor
// evicts abandoned sessions, a panic while re-solving poisons only that
// session (its core session is discarded, not repooled), and server
// shutdown drains every session's pending updates before the streams are
// closed with an in-band reason line.

// SessionCreateRequest is the body of POST /v1/session. Graph/Gen/Bits
// follow SolveRequest; Dests is the destination set re-solved after every
// update batch (each solved once eagerly at creation, sequence 0). On the
// wire "dests" is either an explicit list or the string "all" — every
// destination 0..n-1, the incremental all-pairs session (AllDests on the
// Go side). An explicit list is bounded by MaxSessionDests; "all" is
// bounded by MaxDests, the same cap as /v1/allpairs, since it rides the
// same one-fabric sweep.
type SessionCreateRequest struct {
	Graph    json.RawMessage `json:"graph,omitempty"`
	Gen      json.RawMessage `json:"gen,omitempty"`
	Dests    []int           `json:"-"`
	AllDests bool            `json:"-"`
	Bits     uint            `json:"bits,omitempty"`
}

// decodeSessionCreateRequest decodes a POST /v1/session body with the
// envelope decoder; dests is either a list or the keyword "all".
func decodeSessionCreateRequest(body []byte) (SessionCreateRequest, error) {
	env, dests, err := decodeEnvelope(body, true)
	if err != nil {
		return SessionCreateRequest{}, err
	}
	req := SessionCreateRequest{Graph: env.Graph, Gen: env.Gen, Bits: env.Bits}
	s := jsonscan.New(dests)
	if dests == nil || s.Null() {
		return req, nil
	}
	if s.Peek() == '"' {
		kw, err := s.String()
		if err != nil {
			return SessionCreateRequest{}, err
		}
		if kw != "all" {
			return SessionCreateRequest{}, fmt.Errorf(`dests: unknown keyword %q (want "all" or a destination list)`, kw)
		}
		req.AllDests = true
		return req, nil
	}
	if req.Dests, err = jsonscan.Ints[int](s, nil); err != nil {
		return SessionCreateRequest{}, err
	}
	return req, nil
}

// MarshalJSON writes the wire form: dests is the list, or "all" when
// AllDests is set.
func (r SessionCreateRequest) MarshalJSON() ([]byte, error) {
	var dests any = r.Dests
	if r.AllDests {
		dests = "all"
	}
	return json.Marshal(struct {
		Graph json.RawMessage `json:"graph,omitempty"`
		Gen   json.RawMessage `json:"gen,omitempty"`
		Dests any             `json:"dests"`
		Bits  uint            `json:"bits,omitempty"`
	}{r.Graph, r.Gen, dests, r.Bits})
}

// SessionCreated is the body of a successful POST /v1/session.
type SessionCreated struct {
	SessionID string `json:"session_id"`
	N         int    `json:"n"`
	Bits      uint   `json:"bits"`
	Dests     []int  `json:"dests"`
	// PoolHit reports whether the session runs on a recycled warm fabric.
	PoolHit bool `json:"pool_hit"`
}

// WireUpdate is one weight edit on the wire: set edge u->v to weight w,
// with w = -1 deleting the edge (mirroring the -1 = unreachable encoding
// of DestResult.Dist).
type WireUpdate struct {
	U int   `json:"u"`
	V int   `json:"v"`
	W int64 `json:"w"`
}

// SessionUpdateRequest is the body of POST /v1/session/{id}/update: one
// atomic batch of weight edits (validated as a whole before acceptance,
// last write wins within the batch).
type SessionUpdateRequest struct {
	Updates []WireUpdate `json:"updates"`
}

// UpdateAccepted is the body of a successful update POST. Seq is the
// batch's sequence number; the stream's re-solved rows for this batch
// carry the same seq.
type UpdateAccepted struct {
	Seq     uint64 `json:"seq"`
	Pending int    `json:"pending"`
}

// SessionHeader is the first NDJSON line of GET /v1/session/{id}/stream.
// Then, per re-solve generation: one SessionRow per destination followed
// by a SessionTrailer, all tagged with the generation's seq (0 = the
// solve performed at session creation). A SessionClosed line ends a
// cleanly closed stream; an ErrorResponse line ends a poisoned one.
type SessionHeader struct {
	SessionID string `json:"session_id"`
	N         int    `json:"n"`
	Bits      uint   `json:"bits"`
	Dests     []int  `json:"dests"`
}

// SessionRow is one re-solved destination row.
type SessionRow struct {
	Seq uint64 `json:"seq"`
	DestResult
}

// SessionTrailer closes one re-solve generation.
type SessionTrailer struct {
	Seq  uint64 `json:"seq"`
	Rows int    `json:"rows"`
	// Cost is the machine cost of this generation's re-solves; Iterations
	// the summed DP round count (warm re-solves converge in a handful of
	// rounds; cold ones in ~diameter+1; destinations the batch provably
	// did not touch are emitted from the retained solution and contribute
	// zero to both).
	Cost       ppa.Metrics `json:"cost"`
	Iterations int         `json:"iterations"`
}

// SessionClosed is the final NDJSON line of a cleanly closed stream.
type SessionClosed struct {
	Closed bool   `json:"closed"`
	Reason string `json:"reason"`
}

type sessEventKind int

const (
	evRow sessEventKind = iota
	evTrailer
	evError
	evClosed
)

// sessEvent is one stream line handed from the runner to the stream
// handler. A row carries the runner's *core.Result itself (every Result
// owns its slices) and is encoded once, by the stream handler.
type sessEvent struct {
	kind    sessEventKind
	seq     uint64       // evRow
	res     *core.Result // evRow
	trailer SessionTrailer
	msg     string
}

// liveSession is one server-side dynamic-graph session.
type liveSession struct {
	id    string
	n     int
	h     uint
	dests []int

	// jobs carries accepted update batches to the runner; closing it asks
	// the runner to drain and exit. events carries stream lines to the
	// (single) stream handler; the runner blocks on it when the buffer
	// fills, which backpressures the jobs queue and ultimately answers 429
	// — an unread stream cannot grow server memory without bound.
	jobs   chan sessJob
	events chan sessEvent

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu         sync.Mutex
	seq        uint64
	pending    int
	closing    bool
	streaming  bool
	lastActive time.Time
}

type sessJob struct {
	seq     uint64
	updates []graph.WeightUpdate
}

func (ls *liveSession) touch() {
	ls.mu.Lock()
	ls.lastActive = time.Now()
	ls.mu.Unlock()
}

// send delivers one event to the stream, or gives up when the session is
// cancelled (evicted, poisoned elsewhere, or force-stopped).
func (ls *liveSession) send(ev sessEvent) bool {
	select {
	case ls.events <- ev:
		return true
	case <-ls.ctx.Done():
		return false
	}
}

// trySend delivers an event only if the stream buffer has room — used for
// the final closed line after the session context is already cancelled,
// where blocking is not an option and dropping the line is acceptable.
func (ls *liveSession) trySend(ev sessEvent) {
	select {
	case ls.events <- ev:
	default:
	}
}

// newSessionID returns a fresh 128-bit hex session identifier.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: session id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// sessionCount returns the number of live sessions (for /metrics and
// /healthz).
func (s *Server) sessionCount() int {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return len(s.sessions)
}

// handleSessionCreate is POST /v1/session.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	code := s.sessionCreate(w, r)
	s.metrics.RecordRequest("/v1/session", code)
}

func (s *Server) sessionCreate(w http.ResponseWriter, r *http.Request) int {
	if s.down.Load() {
		return writeError(w, http.StatusServiceUnavailable, "shutting down")
	}
	body, status, err := ReadBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		return writeError(w, status, "%v", err)
	}
	req, err := decodeSessionCreateRequest(body)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	sr := SolveRequest{Graph: req.Graph, Gen: req.Gen}
	g, err := sr.BuildGraph(s.cfg.MaxVertices)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "%v", err)
	}
	if err := g.Validate(); err != nil {
		return writeError(w, http.StatusBadRequest, "%v", err)
	}
	dests := req.Dests
	if req.AllDests {
		// The incremental all-pairs session: every destination, one warm
		// fabric, gated by the same row cap as /v1/allpairs.
		if g.N > s.cfg.MaxDests {
			return writeError(w, http.StatusBadRequest, "all dests over %d vertices exceeds server limit %d", g.N, s.cfg.MaxDests)
		}
		dests = make([]int, g.N)
		for d := range dests {
			dests[d] = d
		}
	} else {
		if len(dests) == 0 {
			return writeError(w, http.StatusBadRequest, `dests must name at least one destination (or "all")`)
		}
		if len(dests) > s.cfg.MaxSessionDests {
			return writeError(w, http.StatusBadRequest, "%d dests exceeds session limit %d", len(dests), s.cfg.MaxSessionDests)
		}
		seen := make(map[int]bool, len(dests))
		for i, d := range dests {
			if d < 0 || d >= g.N {
				return writeError(w, http.StatusBadRequest, "dest %d out of range [0,%d)", d, g.N)
			}
			if seen[d] {
				return writeError(w, http.StatusBadRequest, "duplicate dest %d at dests[%d]", d, i)
			}
			seen[d] = true
		}
	}
	h, err := PickBits(g, req.Bits)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "%v", err)
	}

	s.sessMu.Lock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.sessMu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		return writeError(w, http.StatusTooManyRequests, "session limit %d reached", s.cfg.MaxSessions)
	}
	s.sessMu.Unlock()

	sess, hit, err := s.pool.Get(g, h)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "%v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	ls := &liveSession{
		id:    newSessionID(),
		n:     g.N,
		h:     h,
		dests: append([]int(nil), dests...),
		jobs:  make(chan sessJob, s.cfg.SessionQueueDepth),
		// Sized so a full jobs queue plus the initial solve fit without a
		// reader; past that the runner blocks and admission sheds load.
		events:     make(chan sessEvent, (s.cfg.SessionQueueDepth+2)*(len(dests)+1)+2),
		ctx:        ctx,
		cancel:     cancel,
		done:       make(chan struct{}),
		lastActive: time.Now(),
	}

	s.sessMu.Lock()
	if s.sessions == nil {
		s.sessions = make(map[string]*liveSession)
	}
	if len(s.sessions) >= s.cfg.MaxSessions || s.down.Load() {
		s.sessMu.Unlock()
		cancel()
		s.pool.Put(sess)
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		return writeError(w, http.StatusTooManyRequests, "session limit %d reached", s.cfg.MaxSessions)
	}
	s.sessions[ls.id] = ls
	s.sessMu.Unlock()

	s.sessWG.Add(1)
	go s.sessionRunner(ls, sess)

	return writeJSON(w, http.StatusOK, SessionCreated{
		SessionID: ls.id, N: g.N, Bits: h, Dests: ls.dests, PoolHit: hit,
	})
}

// sessionRunner owns one session's core.Session for the session's whole
// life: it performs the creation-time solve (seq 0), then applies each
// queued update batch and re-solves the destination set warm. A panic
// poisons only this session; its fabric is discarded rather than
// repooled.
func (s *Server) sessionRunner(ls *liveSession, sess *core.Session) {
	defer s.sessWG.Done()
	healthy := true
	defer func() {
		s.sessMu.Lock()
		delete(s.sessions, ls.id)
		s.sessMu.Unlock()
		ls.cancel()
		close(ls.done)
		if healthy {
			s.pool.Put(sess)
		} else {
			sess.Close()
		}
	}()

	// resolveGen streams one re-solve generation: a single warm
	// ResolveSweep over the whole destination set (retained solutions as
	// seeds, untouched destinations skipped outright) instead of
	// per-destination Resolve calls. The test hook keeps its contract —
	// it fires before each destination's solve — by running for the next
	// destination inside the previous row's yield.
	resolveGen := func(seq uint64) (jerr error) {
		defer func() {
			if r := recover(); r != nil {
				healthy = false
				s.metrics.RecordPanic()
				jerr = fmt.Errorf("serve: session re-solve panicked: %v", r)
			}
		}()
		var cost ppa.Metrics
		iterations := 0
		row := 0
		if s.hookBeforeSolve != nil {
			s.hookBeforeSolve(ls.dests[0])
		}
		err := sess.ResolveSweep(ls.ctx, ls.dests, func(r *core.Result) error {
			s.metrics.AddSolves(1, r.Metrics)
			cost = cost.Add(r.Metrics)
			iterations += r.Iterations
			if !ls.send(sessEvent{kind: evRow, seq: seq, res: r}) {
				return context.Canceled
			}
			row++
			if s.hookBeforeSolve != nil && row < len(ls.dests) {
				s.hookBeforeSolve(ls.dests[row])
			}
			return nil
		})
		if err != nil {
			return err
		}
		if !ls.send(sessEvent{kind: evTrailer, trailer: SessionTrailer{
			Seq: seq, Rows: len(ls.dests), Cost: cost, Iterations: iterations,
		}}) {
			return context.Canceled
		}
		return nil
	}

	fail := func(err error) {
		ls.trySend(sessEvent{kind: evError, msg: err.Error()})
		ls.cancel()
	}

	if err := resolveGen(0); err != nil {
		fail(err)
		return
	}
	for {
		select {
		case j, ok := <-ls.jobs:
			if !ok {
				ls.send(sessEvent{kind: evClosed, msg: "session closed"})
				return
			}
			ls.mu.Lock()
			ls.pending--
			ls.mu.Unlock()
			if err := sess.Update(j.updates); err != nil {
				// Batches are fully validated at admission; reaching this
				// means the session state is unexplainable — poison it.
				healthy = false
				fail(fmt.Errorf("serve: update rejected post-admission: %v", err))
				return
			}
			if err := resolveGen(j.seq); err != nil {
				fail(err)
				return
			}
		case <-ls.ctx.Done():
			ls.trySend(sessEvent{kind: evClosed, msg: "session evicted"})
			return
		}
	}
}

// handleSessionUpdate is POST /v1/session/{id}/update.
func (s *Server) handleSessionUpdate(w http.ResponseWriter, r *http.Request) {
	code := s.sessionUpdate(w, r)
	s.metrics.RecordRequest("/v1/session/update", code)
}

func (s *Server) sessionUpdate(w http.ResponseWriter, r *http.Request) int {
	ls := s.lookupSession(r.PathValue("id"))
	if ls == nil {
		return writeError(w, http.StatusNotFound, "no such session")
	}
	body, status, err := ReadBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		return writeError(w, status, "%v", err)
	}
	var req SessionUpdateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	if len(req.Updates) == 0 {
		return writeError(w, http.StatusBadRequest, "updates must name at least one edit")
	}
	if len(req.Updates) > s.cfg.MaxUpdateBatch {
		return writeError(w, http.StatusBadRequest, "%d updates exceeds batch limit %d", len(req.Updates), s.cfg.MaxUpdateBatch)
	}
	// Full validation happens here, synchronously, so acceptance means the
	// batch will apply: endpoint range plus the word-width rule the core
	// enforces (weights only widen costs; (n-1)*w must stay below MAXINT).
	ups := make([]graph.WeightUpdate, len(req.Updates))
	inf := int64(ppa.Infinity(ls.h))
	for i, u := range req.Updates {
		wt := u.W
		if wt == -1 {
			wt = graph.NoEdge
		}
		ups[i] = graph.WeightUpdate{U: u.U, V: u.V, W: wt}
		if err := ups[i].Validate(ls.n); err != nil {
			return writeError(w, http.StatusBadRequest, "%v", err)
		}
		if wt != graph.NoEdge && u.U != u.V && ls.n > 1 && wt > (inf-1)/int64(ls.n-1) {
			return writeError(w, http.StatusBadRequest,
				"update %d->%d: weight %d too wide for %d-bit words at n=%d", u.U, u.V, wt, ls.h, ls.n)
		}
	}

	ls.mu.Lock()
	if ls.closing {
		ls.mu.Unlock()
		return writeError(w, http.StatusGone, "session is closing")
	}
	if ls.pending >= s.cfg.SessionQueueDepth {
		ls.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		return writeError(w, http.StatusTooManyRequests, "session update queue full; retry later")
	}
	ls.seq++
	seq := ls.seq
	ls.pending++
	pending := ls.pending
	ls.lastActive = time.Now()
	// Enqueue under the lock: pending was reserved against the queue
	// depth, so the buffered send cannot block, and closing cannot race
	// ahead to close(jobs) before the send lands.
	ls.jobs <- sessJob{seq: seq, updates: ups}
	ls.mu.Unlock()

	return writeJSON(w, http.StatusOK, UpdateAccepted{Seq: seq, Pending: pending})
}

// handleSessionStream is GET /v1/session/{id}/stream.
func (s *Server) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	code := s.sessionStream(w, r)
	s.metrics.RecordRequest("/v1/session/stream", code)
}

func (s *Server) sessionStream(w http.ResponseWriter, r *http.Request) int {
	ls := s.lookupSession(r.PathValue("id"))
	if ls == nil {
		return writeError(w, http.StatusNotFound, "no such session")
	}
	ls.mu.Lock()
	if ls.streaming {
		ls.mu.Unlock()
		return writeError(w, http.StatusConflict, "session already has a stream consumer")
	}
	ls.streaming = true
	ls.lastActive = time.Now()
	ls.mu.Unlock()
	defer func() {
		ls.mu.Lock()
		ls.streaming = false
		ls.mu.Unlock()
	}()

	// Every flush re-arms the write deadline to now + SessionIdleTimeout:
	// a reader that stops reading costs this handler one idle period, then
	// the handler returns and the session stays for a reconnect.
	st := newRowStream(w, s.cfg.SessionIdleTimeout)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if st.line(SessionHeader{SessionID: ls.id, N: ls.n, Bits: ls.h, Dests: ls.dests}, true) != nil {
		return http.StatusOK
	}

	// writeEvent renders one event; it reports whether the stream is over,
	// by a terminal line or a failed write.
	writeEvent := func(ev sessEvent) bool {
		ls.touch()
		var err error
		switch ev.kind {
		case evRow:
			err = st.row(&ev.seq, ev.res)
		case evTrailer:
			err = st.line(ev.trailer, true)
		case evError:
			_ = st.line(ErrorResponse{Error: ev.msg}, true)
			return true
		case evClosed:
			_ = st.line(SessionClosed{Closed: true, Reason: ev.msg}, true)
			return true
		}
		return err != nil
	}
	for {
		select {
		case ev := <-ls.events:
			if writeEvent(ev) {
				return http.StatusOK
			}
		case <-ls.done:
			// Runner gone: flush whatever it left buffered, then end.
			for {
				select {
				case ev := <-ls.events:
					if writeEvent(ev) {
						return http.StatusOK
					}
				default:
					return http.StatusOK
				}
			}
		case <-r.Context().Done():
			// Client went away; the session (and its buffered rows) stay
			// for a reconnect until the idle janitor collects it.
			return http.StatusOK
		}
	}
}

// handleSessionDelete is DELETE /v1/session/{id}: a graceful close. The
// runner drains already-accepted updates, their rows still reach the
// stream, then a closed line ends it.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	ls := s.lookupSession(r.PathValue("id"))
	if ls == nil {
		s.metrics.RecordRequest("/v1/session/delete", http.StatusNotFound)
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	ls.beginClose()
	s.metrics.RecordRequest("/v1/session/delete", http.StatusOK)
	writeJSON(w, http.StatusOK, SessionClosed{Closed: true, Reason: "client close"})
}

// beginClose stops admission and hands the runner its drain signal; safe
// to call more than once.
func (ls *liveSession) beginClose() {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.closing {
		return
	}
	ls.closing = true
	close(ls.jobs)
}

func (s *Server) lookupSession(id string) *liveSession {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return s.sessions[id]
}

// sessionJanitor evicts sessions idle past the configured timeout. Idle
// means no update, no stream activity: a client that keeps its stream
// open but sends nothing is evicted too — the closed line tells it why.
func (s *Server) sessionJanitor() {
	defer s.sessWG.Done()
	period := s.cfg.SessionIdleTimeout / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-tick.C:
			cutoff := time.Now().Add(-s.cfg.SessionIdleTimeout)
			s.sessMu.Lock()
			var idle []*liveSession
			for _, ls := range s.sessions {
				ls.mu.Lock()
				if ls.lastActive.Before(cutoff) {
					idle = append(idle, ls)
				}
				ls.mu.Unlock()
			}
			s.sessMu.Unlock()
			for _, ls := range idle {
				// Cancel rather than drain: an idle session has nothing
				// in flight worth finishing.
				ls.cancel()
			}
		}
	}
}

// beginDrainSessions starts a graceful close of every session and stops
// the janitor; runners finish already-accepted updates and exit (tracked
// by sessWG). cancelSessions is the hard fallback for a drain deadline:
// it unblocks any runner stuck on an unread stream.
func (s *Server) beginDrainSessions() {
	s.sessMu.Lock()
	all := make([]*liveSession, 0, len(s.sessions))
	for _, ls := range s.sessions {
		all = append(all, ls)
	}
	s.sessMu.Unlock()
	for _, ls := range all {
		ls.beginClose()
	}
	close(s.janitorStop)
}

func (s *Server) cancelSessions() {
	s.sessMu.Lock()
	all := make([]*liveSession, 0, len(s.sessions))
	for _, ls := range s.sessions {
		all = append(all, ls)
	}
	s.sessMu.Unlock()
	for _, ls := range all {
		ls.cancel()
	}
}
