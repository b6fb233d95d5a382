package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ppamcp/internal/serve"
)

// stack is one round's server processes and the client state that talks
// to them: the request pool (at most nproc connections) and, for
// session-churn, one long-lived stream per session.
type stack struct {
	in       *inputs
	backends []*daemon // ppaserved processes
	router   *daemon   // pparouter, fleet-zipf only
	target   string    // where operations are sent
	hc       *http.Client
	sessions []*liveSession
}

// liveSession is the client side of one /v1/session: its id, its stream
// and the next sequence number it expects.
type liveSession struct {
	id     string
	stream *bufio.Reader
	body   io.Closer
	seq    uint64
}

// conns is the generator's connection cap: one per CPU.
func conns() int { return max(1, runtime.NumCPU()) }

// startStack spawns the workload's server processes and returns once each
// announced its listen address. The fleet's router starts with every
// backend in its ring, so it routes as soon as it listens.
func startStack(binDir string, in *inputs) (*stack, error) {
	st := &stack{in: in}
	st.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns(),
		MaxIdleConnsPerHost: conns(),
		DisableCompression:  true,
	}}
	nBackends, workerArgs := 1, []string(nil)
	if in.w.fleet {
		nBackends, workerArgs = 2, []string{"-workers", "1"}
	}
	for i := 0; i < nBackends; i++ {
		d, err := startDaemon(binDir, "ppaserved", workerArgs...)
		if err != nil {
			st.stop()
			return nil, err
		}
		st.backends = append(st.backends, d)
	}
	st.target = st.backends[0].url
	if in.w.fleet {
		r, err := startDaemon(binDir, "pparouter",
			"-backends", st.backends[0].url+","+st.backends[1].url,
			"-cache-entries", strconv.Itoa(fleetCacheEntries))
		if err != nil {
			st.stop()
			return nil, err
		}
		st.router = r
		st.target = r.url
	}
	return st, nil
}

// daemons lists every server process of the stack.
func (st *stack) daemons() []*daemon {
	ds := append([]*daemon(nil), st.backends...)
	if st.router != nil {
		ds = append(ds, st.router)
	}
	return ds
}

// stop closes the session streams and connections, then stops every
// server process and waits for it.
func (st *stack) stop() {
	for _, s := range st.sessions {
		s.body.Close()
	}
	st.hc.CloseIdleConnections()
	if st.router != nil {
		st.router.stop()
	}
	for _, d := range st.backends {
		d.stop()
	}
}

// opRec is one executed operation: what was sent, when, and the raw
// answer kept for verification after the phase.
type opRec struct {
	op    op
	seq   uint64 // session-churn: the generation this op produced
	due   time.Time
	sent  time.Time
	first time.Time // first result row (for /v1/solve: the response headers)
	done  time.Time

	status  int
	shed    int    // 429 answers retried before the final one
	cache   string // X-Ppa-Cache (fleet-zipf)
	backend string // X-Ppa-Backend (fleet-zipf)
	bytes   int
	raw     []byte   // /v1/solve body or /v1/allpairs stream
	lines   [][]byte // session generation: rows then trailer
	err     error
	ok      bool // set by verification
}

// maxRetries429 bounds how often one operation retries a 429 (after a
// 50 ms back-off) before it counts as failed.
const maxRetries429 = 5

// do executes one operation on the stack. Latency stamps are taken before
// any decoding: verification happens later, outside the timed window.
func (st *stack) do(ctx context.Context, rec *opRec, buf *[]byte) {
	in := st.in
	rec.sent = time.Now()
	switch in.w.kind {
	case opSolve:
		*buf = in.solveBody(*buf, rec.op.graph, rec.op.dests)
		st.post(ctx, rec, "/v1/solve", *buf, false)
	case opAllPairs:
		st.post(ctx, rec, "/v1/allpairs", in.allPairsBody(rec.op.graph), true)
	case opSession:
		st.update(ctx, rec)
	}
}

// post sends body, retrying 429, and reads the whole answer. For a
// stream, first is stamped when the first row line (the line after the
// header) arrives; otherwise when the response headers do.
func (st *stack) post(ctx context.Context, rec *opRec, path string, body []byte, stream bool) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.target+path, bytes.NewReader(body))
		if err != nil {
			rec.err = err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := st.hc.Do(req)
		if err != nil {
			rec.err = err
			rec.done = time.Now()
			return
		}
		rec.status = resp.StatusCode
		if resp.StatusCode == http.StatusTooManyRequests && attempt < maxRetries429 {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rec.shed++
			time.Sleep(50 * time.Millisecond)
			continue
		}
		rec.cache = resp.Header.Get("X-Ppa-Cache")
		rec.backend = resp.Header.Get("X-Ppa-Backend")
		if !stream || resp.StatusCode != http.StatusOK {
			rec.first = time.Now()
			rec.raw, rec.err = io.ReadAll(resp.Body)
		} else {
			rec.raw, rec.err = readStream(resp.Body, &rec.first)
		}
		rec.done = time.Now()
		rec.bytes = len(rec.raw)
		resp.Body.Close()
		return
	}
}

// readStream reads an NDJSON stream to EOF, stamping first when the
// second line (the first row after the header) is complete.
func readStream(r io.Reader, first *time.Time) ([]byte, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var out []byte
	for lines := 0; ; lines++ {
		line, err := br.ReadSlice('\n')
		for err == bufio.ErrBufferFull {
			out = append(out, line...)
			line, err = br.ReadSlice('\n')
		}
		out = append(out, line...)
		if lines == 1 && first.IsZero() {
			*first = time.Now()
		}
		if err == io.EOF {
			if first.IsZero() {
				*first = time.Now()
			}
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// openSessions creates one "dests":"all" session per session graph, opens
// its stream and reads generation 0, returning one record per session.
func (st *stack) openSessions(ctx context.Context) ([]opRec, error) {
	in := st.in
	streamClient := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	var recs []opRec
	for si := 0; si < in.w.graphs; si++ {
		rec := opRec{op: op{graph: si}, sent: time.Now()}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.target+"/v1/session", bytes.NewReader(in.sessionBody(si)))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := st.hc.Do(req)
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("create session: status %d: %s %v", resp.StatusCode, bytes.TrimSpace(data), err)
		}
		var created serve.SessionCreated
		if err := json.Unmarshal(data, &created); err != nil {
			return nil, fmt.Errorf("create session: %w", err)
		}
		sreq, err := http.NewRequestWithContext(ctx, http.MethodGet, st.target+"/v1/session/"+created.SessionID+"/stream", nil)
		if err != nil {
			return nil, err
		}
		sresp, err := streamClient.Do(sreq)
		if err != nil {
			return nil, err
		}
		if sresp.StatusCode != http.StatusOK {
			sresp.Body.Close()
			return nil, fmt.Errorf("open session stream: status %d", sresp.StatusCode)
		}
		ls := &liveSession{id: created.SessionID, stream: bufio.NewReaderSize(sresp.Body, 64<<10), body: sresp.Body}
		st.sessions = append(st.sessions, ls)
		if _, err := ls.stream.ReadBytes('\n'); err != nil { // stream header
			return nil, fmt.Errorf("session stream header: %w", err)
		}
		rec.status = http.StatusOK
		st.readGeneration(&rec, ls, 0)
		recs = append(recs, rec)
	}
	return recs, nil
}

// update posts the session's next batch and reads that seq's generation.
// The batch for seq q is the session cycle's batch for q.
func (st *stack) update(ctx context.Context, rec *opRec) {
	si := rec.op.graph
	ls := st.sessions[si]
	seq := ls.seq + 1
	c := st.in.cycles[si]
	body := c.batches[c.batch(seq)]
	url := st.target + "/v1/session/" + ls.id + "/update"
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			rec.err = err
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := st.hc.Do(req)
		if err != nil {
			rec.err = err
			rec.done = time.Now()
			return
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		rec.status = resp.StatusCode
		rec.bytes += len(data)
		if resp.StatusCode == http.StatusTooManyRequests && attempt < maxRetries429 {
			rec.shed++
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			rec.err = fmt.Errorf("update: status %d: %s %v", resp.StatusCode, bytes.TrimSpace(data), err)
			rec.done = time.Now()
			return
		}
		var ua serve.UpdateAccepted
		if err := json.Unmarshal(data, &ua); err != nil || ua.Seq != seq {
			rec.err = fmt.Errorf("update accepted as seq %d, want %d (%v)", ua.Seq, seq, err)
			rec.done = time.Now()
			return
		}
		ls.seq = seq
		st.readGeneration(rec, ls, seq)
		return
	}
}

// readGeneration reads seq's rows and trailer off the session stream,
// stamping first at the first row and done at the trailer.
func (st *stack) readGeneration(rec *opRec, ls *liveSession, seq uint64) {
	rec.seq = seq
	n := st.in.n
	for len(rec.lines) <= n {
		line, err := ls.stream.ReadBytes('\n')
		if err != nil {
			rec.err = fmt.Errorf("seq %d: stream ended: %w", seq, err)
			rec.done = time.Now()
			return
		}
		if len(rec.lines) == 0 {
			rec.first = time.Now()
		}
		rec.bytes += len(line)
		rec.lines = append(rec.lines, line)
	}
	rec.done = time.Now()
}

// verify checks every record of a phase against the references and sets
// rec.ok; it returns the first failure seen.
func (st *stack) verify(v *verifier, recs []opRec) error {
	var first error
	for i := range recs {
		rec := &recs[i]
		err := rec.err
		if err == nil && rec.status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", rec.status, bytes.TrimSpace(rec.raw))
		}
		if err == nil {
			switch st.in.w.kind {
			case opSolve:
				err = v.checkSolve(rec.raw, rec.op.graph, rec.op.dests)
			case opAllPairs:
				err = v.checkTable(rec.raw, rec.op.graph)
			case opSession:
				err = v.checkGeneration(rec.lines, rec.op.graph, rec.seq)
			}
		}
		rec.ok = err == nil
		if err != nil && first == nil {
			first = fmt.Errorf("%s op %d: %w", st.in.w.name, i, err)
		}
		rec.raw, rec.lines = nil, nil
	}
	return first
}

// phase is one closed or open measurement window.
type phase struct {
	recs        []opRec
	start, end  time.Time
	lateMS      []float64 // open: dispatch lateness of every operation
	inflightMax int64
}

// closedClients is the closed phase's client count.
const closedClients = 2

// closedPhase runs closedClients back-to-back clients for dur. For
// session-churn client c drives session c; otherwise clients share the
// seeded op stream.
func (st *stack) closedPhase(ctx context.Context, dur time.Duration) *phase {
	var mu sync.Mutex
	ph := &phase{start: time.Now()}
	deadline := ph.start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < closedClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf []byte
			var local []opRec
			for time.Now().Before(deadline) {
				var o op
				if st.in.w.kind == opSession {
					o = op{graph: c % len(st.sessions)}
				} else {
					mu.Lock()
					o = st.in.next()
					mu.Unlock()
				}
				rec := opRec{op: o}
				st.do(ctx, &rec, &buf)
				local = append(local, rec)
			}
			mu.Lock()
			ph.recs = append(ph.recs, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	ph.end = ph.start
	for _, r := range ph.recs {
		if r.done.After(ph.end) {
			ph.end = r.done
		}
	}
	return ph
}

// openPhase sends operations on a fixed-interval schedule at rate for
// dur. Each operation is timed from when it was due, so a stall delays
// the operations behind it and shows in their latency. At most conns()
// operations are in flight on the wire; the rest wait for a connection
// with their due time kept. session-churn orders operations per session
// (one lane each), since a session applies its batches in sequence.
func (st *stack) openPhase(ctx context.Context, dur time.Duration, rate float64) *phase {
	count := max(1, int(dur.Seconds()*rate))
	ph := &phase{recs: make([]opRec, count), lateMS: make([]float64, count)}
	for i := range ph.recs {
		if st.in.w.kind == opSession {
			ph.recs[i].op = op{graph: i % len(st.sessions)}
		} else {
			ph.recs[i].op = st.in.next()
		}
	}
	nLanes := 1
	workersPerLane := conns()
	if st.in.w.kind == opSession {
		nLanes, workersPerLane = len(st.sessions), 1
	}
	// Each lane's queue holds every operation it can be given, so the
	// dispatcher never blocks on a send.
	lanes := make([]chan int, nLanes)
	var wg sync.WaitGroup
	var inflight atomic.Int64
	for l := range lanes {
		lanes[l] = make(chan int, count)
		for w := 0; w < workersPerLane; w++ {
			wg.Add(1)
			go func(ch chan int) {
				defer wg.Done()
				var buf []byte
				for i := range ch {
					st.do(ctx, &ph.recs[i], &buf)
					inflight.Add(-1)
				}
			}(lanes[l])
		}
	}
	interval := time.Duration(float64(time.Second) / rate)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ph.start = time.Now().Add(time.Millisecond)
	for i := range ph.recs {
		due := ph.start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		ph.lateMS[i] = ms(time.Since(due))
		ph.recs[i].due = due
		ph.inflightMax = max(ph.inflightMax, inflight.Add(1))
		lanes[i%nLanes] <- i
	}
	for _, ch := range lanes {
		close(ch)
	}
	wg.Wait()
	ph.end = time.Now()
	return ph
}

// sleepUntil blocks the calling thread until t. The dispatcher sleeps in
// nanosleep on its own locked thread rather than in time.Sleep: with every
// goroutine idle, time.Sleep woke uniformly 0-1 ms late on a 2-vCPU Linux
// VM, and nanosleep about 0.1 ms late. In an open loop that lateness would
// count as server latency.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// okCount is the number of verified operations of a phase.
func (ph *phase) okCount() int {
	n := 0
	for _, r := range ph.recs {
		if r.ok {
			n++
		}
	}
	return n
}

// latencies returns, per operation, the time from due to done and from
// due to the first result row, in milliseconds. A failed operation counts
// as missing every latency limit (+Inf).
func (ph *phase) latencies() (total, firstRow []float64) {
	for _, r := range ph.recs {
		if !r.ok {
			total = append(total, math.Inf(1))
			firstRow = append(firstRow, math.Inf(1))
			continue
		}
		total = append(total, ms(r.done.Sub(r.due)))
		firstRow = append(firstRow, ms(r.first.Sub(r.due)))
	}
	return total, firstRow
}
