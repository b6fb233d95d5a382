package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"ppamcp/internal/core"
	"ppamcp/internal/graph"
)

// This file is the NDJSON writer shared by the two streaming routes,
// /v1/allpairs and /v1/session/{id}/stream: one row encoder that appends
// a destination row straight from a *core.Result, and one flush rule.
//
// Rows are the bulk of every stream (n of them per table or generation),
// so they skip encoding/json: appendRow writes exactly the bytes
// json.Encoder writes for the row's DestResult (or SessionRow), newline
// included, into a buffer the stream reuses. Headers, trailers and
// terminal lines come once per table, generation or stream and keep
// json.Marshal.

// flushQuiet is the stream flush rule. A stream flushes
//   - the first row of every table and every generation,
//   - every terminal line (trailer, error line, closed line),
//   - any other row only when at least flushQuiet has passed since the
//     stream's last flush.
//
// Between flushes net/http writes its own buffer to the socket whenever
// it fills, so a fast sweep costs a few writes per table instead of one
// per row, while a slow lane (virtualized, switch-only, SolveDelay) still
// streams row by row: each of its rows arrives more than flushQuiet after
// the last flush.
const flushQuiet = time.Millisecond

// appendRow appends r as one NDJSON line: byte for byte what
// json.Encoder writes for toDestResult(r), or, with a seq, for
// SessionRow{Seq: *seq, DestResult: toDestResult(r)}. graph.NoEdge
// distances are written as -1. r has at least one vertex, as every
// core.Result does.
func appendRow(buf []byte, seq *uint64, r *core.Result) []byte {
	buf = append(buf, '{')
	if seq != nil {
		buf = append(buf, `"seq":`...)
		buf = strconv.AppendUint(buf, *seq, 10)
		buf = append(buf, ',')
	}
	buf = append(buf, `"dest":`...)
	buf = strconv.AppendInt(buf, int64(r.Dest), 10)
	buf = append(buf, `,"dist":[`...)
	for i, d := range r.Dist {
		if i > 0 {
			buf = append(buf, ',')
		}
		if d == graph.NoEdge {
			d = -1
		}
		buf = strconv.AppendInt(buf, d, 10)
	}
	buf = append(buf, `],"next":[`...)
	for i, v := range r.Next {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	buf = append(buf, `],"iterations":`...)
	buf = strconv.AppendInt(buf, int64(r.Iterations), 10)
	return append(buf, "}\n"...)
}

// rowStream writes one NDJSON response under the flush rule. Each flush
// re-arms the connection's write deadline to now + idle when idle > 0
// (session streams); otherwise the caller sets one deadline for the whole
// stream. A write error ends the stream: net/http keeps it sticky, so
// every later write and flush reports it too.
type rowStream struct {
	w    http.ResponseWriter
	rc   *http.ResponseController
	buf  []byte
	idle time.Duration
	last time.Time // last flush
	// fresh marks that no row was written since the last flushed line, so
	// the next row is the first of its table or generation.
	fresh bool
}

func newRowStream(w http.ResponseWriter, idle time.Duration) *rowStream {
	return &rowStream{w: w, rc: http.NewResponseController(w), idle: idle, fresh: true}
}

// row writes r as a destination row, tagged with seq when seq is non-nil.
func (st *rowStream) row(seq *uint64, r *core.Result) error {
	st.buf = appendRow(st.buf[:0], seq, r)
	now := time.Now()
	flush := st.fresh || now.Sub(st.last) >= flushQuiet
	st.fresh = false
	return st.write(flush, now)
}

// line writes v, a header, trailer or terminal line, through
// encoding/json. flush marks the end of a table, generation or stream (or
// a header the client is waiting on): the line is flushed and the next
// row counts as a first row.
func (st *rowStream) line(v any, flush bool) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	st.buf = append(append(st.buf[:0], b...), '\n')
	if flush {
		st.fresh = true
	}
	return st.write(flush, time.Now())
}

func (st *rowStream) write(flush bool, now time.Time) error {
	if flush && st.idle > 0 {
		// A writer without deadlines (http.ErrNotSupported) streams
		// unbounded, as before write deadlines existed.
		_ = st.rc.SetWriteDeadline(now.Add(st.idle))
	}
	if _, err := st.w.Write(st.buf); err != nil {
		return err
	}
	if !flush {
		return nil
	}
	st.last = now
	return st.rc.Flush()
}
