package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"ppamcp/internal/core"
	"ppamcp/internal/graph"
	"ppamcp/internal/ppa"
)

// The encoding/json forms the row encoder replaced are its oracle: the
// stream paths used to write toDestResult(r), or a SessionRow around it,
// through json.Encoder.

func toDestResult(r *core.Result) DestResult {
	out := DestResult{
		Dest:       r.Dest,
		Dist:       make([]int64, len(r.Dist)),
		Next:       append([]int(nil), r.Next...),
		Iterations: r.Iterations,
	}
	for i, d := range r.Dist {
		if d == graph.NoEdge {
			out.Dist[i] = -1
		} else {
			out.Dist[i] = d
		}
	}
	return out
}

func oracleRow(t testing.TB, seq *uint64, r *core.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	var v any = toDestResult(r)
	if seq != nil {
		v = SessionRow{Seq: *seq, DestResult: toDestResult(r)}
	}
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkRow requires appendRow to write exactly the oracle's bytes, also
// when appending after existing content.
func checkRow(t testing.TB, seq *uint64, r *core.Result) []byte {
	t.Helper()
	want := oracleRow(t, seq, r)
	if got := appendRow(nil, seq, r); !bytes.Equal(got, want) {
		t.Fatalf("appendRow:\n got %s\nwant %s", got, want)
	}
	prefix := []byte("xyz")
	if got := appendRow(prefix, seq, r); !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != "xyz" {
		t.Fatalf("appendRow after a prefix:\n got %s\nwant xyz%s", got, want)
	}
	return want
}

// oracleSolveResponse is the /v1/solve body as json.Encoder wrote it
// over a SolveResponse of toDestResult copies.
func oracleSolveResponse(t testing.TB, n int, h uint, d jobDone) []byte {
	t.Helper()
	var results []DestResult
	if d.results != nil {
		results = make([]DestResult, 0, len(d.results))
		for _, r := range d.results {
			results = append(results, toDestResult(r))
		}
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(SolveResponse{
		N: n, Bits: h, Results: results, Cost: d.cost,
		PoolHit: d.poolHit, Batched: d.batched,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkSolveResponse requires appendSolveResponse to write exactly the
// oracle's bytes, also when appending after existing content.
func checkSolveResponse(t testing.TB, n int, h uint, d jobDone) []byte {
	t.Helper()
	want := oracleSolveResponse(t, n, h, d)
	if got := appendSolveResponse(nil, n, h, d); !bytes.Equal(got, want) {
		t.Fatalf("appendSolveResponse:\n got %s\nwant %s", got, want)
	}
	prefix := []byte("xyz")
	if got := appendSolveResponse(prefix, n, h, d); !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != "xyz" {
		t.Fatalf("appendSolveResponse after a prefix:\n got %s\nwant xyz%s", got, want)
	}
	return want
}

func result(dest, iterations int, dist []int64, next []int) *core.Result {
	return &core.Result{Result: graph.Result{Dest: dest, Dist: dist, Next: next, Iterations: iterations}}
}

func seqOf(v uint64) *uint64 { return &v }

type etest struct {
	n   string
	r   *core.Result
	seq *uint64
	res string
}

var encodeTests = []etest{
	{n: "plain", r: result(2, 2, []int64{12, 7, 0}, []int{1, 2, -1}),
		res: `{"dest":2,"dist":[12,7,0],"next":[1,2,-1],"iterations":2}`},
	{n: "unreachable", r: result(0, 2, []int64{0, graph.NoEdge, graph.NoEdge}, []int{-1, -1, -1}),
		res: `{"dest":0,"dist":[0,-1,-1],"next":[-1,-1,-1],"iterations":2}`},
	{n: "n=1", r: result(0, 1, []int64{0}, []int{-1}),
		res: `{"dest":0,"dist":[0],"next":[-1],"iterations":1}`},
	{n: "zero iterations", r: result(1, 0, []int64{4, 0}, []int{1, -1}),
		res: `{"dest":1,"dist":[4,0],"next":[1,-1],"iterations":0}`},
	{n: "seq 0", r: result(1, 3, []int64{4, 0}, []int{1, -1}), seq: seqOf(0),
		res: `{"seq":0,"dest":1,"dist":[4,0],"next":[1,-1],"iterations":3}`},
	{n: "large seq", r: result(0, 1, []int64{0, graph.NoEdge}, []int{-1, -1}), seq: seqOf(math.MaxUint64),
		res: `{"seq":18446744073709551615,"dest":0,"dist":[0,-1],"next":[-1,-1],"iterations":1}`},
	{n: "large distances", r: result(1, 5, []int64{math.MaxInt64 - 1, 0, 1 << 40}, []int{1, -1, 0}),
		res: `{"dest":1,"dist":[9223372036854775806,0,1099511627776],"next":[1,-1,0],"iterations":5}`},
}

type stest struct {
	n    string
	size int
	h    uint
	d    jobDone
	res  string
}

var solveEncodeTests = []stest{
	{n: "one result", size: 3, h: 8, d: jobDone{
		results: []*core.Result{result(2, 2, []int64{12, 7, 0}, []int{1, 2, -1})},
		cost:    ppa.Metrics{BusCycles: 5, WiredOrCycles: 40, GlobalOrOps: 2, PEOps: 90, Instructions: 31},
		poolHit: true, batched: 1},
		res: `{"n":3,"bits":8,"results":[{"dest":2,"dist":[12,7,0],"next":[1,2,-1],"iterations":2}],` +
			`"cost":{"BusCycles":5,"WiredOrCycles":40,"ShiftSteps":0,"RouterCycles":0,"GlobalOrOps":2,"PEOps":90,"Instructions":31},` +
			`"pool_hit":true,"batched":1}`},
	{n: "shared results", size: 2, h: 16, d: jobDone{
		results: []*core.Result{
			result(0, 2, []int64{0, graph.NoEdge}, []int{-1, -1}),
			result(1, 1, []int64{3, 0}, []int{1, -1}),
			result(0, 2, []int64{0, graph.NoEdge}, []int{-1, -1}),
		}, batched: 3},
		res: `{"n":2,"bits":16,"results":[{"dest":0,"dist":[0,-1],"next":[-1,-1],"iterations":2},` +
			`{"dest":1,"dist":[3,0],"next":[1,-1],"iterations":1},{"dest":0,"dist":[0,-1],"next":[-1,-1],"iterations":2}],` +
			`"cost":{"BusCycles":0,"WiredOrCycles":0,"ShiftSteps":0,"RouterCycles":0,"GlobalOrOps":0,"PEOps":0,"Instructions":0},` +
			`"pool_hit":false,"batched":3}`},
	{n: "empty results", size: 1, h: 1, d: jobDone{results: []*core.Result{}},
		res: `{"n":1,"bits":1,"results":[],` +
			`"cost":{"BusCycles":0,"WiredOrCycles":0,"ShiftSteps":0,"RouterCycles":0,"GlobalOrOps":0,"PEOps":0,"Instructions":0},` +
			`"pool_hit":false,"batched":0}`},
	{n: "nil results", size: 0, h: 0, d: jobDone{},
		res: `{"n":0,"bits":0,"results":null,` +
			`"cost":{"BusCycles":0,"WiredOrCycles":0,"ShiftSteps":0,"RouterCycles":0,"GlobalOrOps":0,"PEOps":0,"Instructions":0},` +
			`"pool_hit":false,"batched":0}`},
	{n: "extremes", size: math.MaxInt64, h: math.MaxUint, d: jobDone{
		results: []*core.Result{result(0, 1, []int64{0}, []int{-1})},
		cost: ppa.Metrics{BusCycles: math.MaxInt64, WiredOrCycles: math.MinInt64, ShiftSteps: -1,
			RouterCycles: 1, GlobalOrOps: 10, PEOps: 1 << 40, Instructions: 7},
		poolHit: true, batched: math.MinInt64},
		res: `{"n":9223372036854775807,"bits":18446744073709551615,"results":[{"dest":0,"dist":[0],"next":[-1],"iterations":1}],` +
			`"cost":{"BusCycles":9223372036854775807,"WiredOrCycles":-9223372036854775808,"ShiftSteps":-1,"RouterCycles":1,"GlobalOrOps":10,"PEOps":1099511627776,"Instructions":7},` +
			`"pool_hit":true,"batched":-9223372036854775808}`},
}

// TestWireEncodeSolveCases runs the named /v1/solve bodies through the
// encoder and its encoding/json oracle.
func TestWireEncodeSolveCases(t *testing.T) {
	for _, test := range solveEncodeTests {
		t.Run(test.n, func(t *testing.T) {
			if got := checkSolveResponse(t, test.size, test.h, test.d); string(got) != test.res+"\n" {
				t.Errorf("got %s, want %s", got, test.res)
			}
		})
	}
}

func genEncode(test etest) func(*testing.T) {
	return func(t *testing.T) {
		if got := checkRow(t, test.seq, test.r); string(got) != test.res+"\n" {
			t.Errorf("got %s, want %s", got, test.res)
		}
	}
}

// TestWireEncodeCases runs the named rows through the encoder and its
// encoding/json oracle.
func TestWireEncodeCases(t *testing.T) {
	for _, test := range encodeTests {
		t.Run(test.n, genEncode(test))
	}
}

// FuzzWireEncode is the differential fuzzer for the row encoder: any row
// a core.Result can carry encodes to encoding/json's bytes, untagged, as
// a session row, and twice inside a /v1/solve body. Each 9-byte chunk of data is one vertex: a selector
// and a 64-bit value for its distance and next hop.
func FuzzWireEncode(f *testing.F) {
	f.Add(uint64(0), 0, 1, false, []byte{})
	f.Add(uint64(7), 3, 0, true, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 1, 255, 255, 255, 255, 255, 255, 255, 127})
	f.Add(uint64(math.MaxUint64), -1, -7, true, bytes.Repeat([]byte{2, 200, 1, 0, 0, 0, 0, 0, 128}, 5))
	f.Fuzz(func(t *testing.T, seq uint64, dest, iterations int, tagged bool, data []byte) {
		n := 1 + len(data)/9
		if n > 512 {
			t.Skip()
		}
		chunk := make([]byte, 9*n)
		copy(chunk, data)
		r := result(dest, iterations, make([]int64, n), make([]int, n))
		for i := 0; i < n; i++ {
			c := chunk[9*i:]
			v := int64(binary.LittleEndian.Uint64(c[1:9]))
			switch c[0] % 4 {
			case 0:
				r.Dist[i], r.Next[i] = graph.NoEdge, -1
			case 1:
				r.Dist[i], r.Next[i] = v, int(int32(v))
			default:
				r.Dist[i], r.Next[i] = v%1000, int(v%64)
			}
		}
		var s *uint64
		if tagged {
			s = &seq
		}
		checkRow(t, s, r)
		checkSolveResponse(t, n, uint(seq), jobDone{
			results: []*core.Result{r, r},
			cost: ppa.Metrics{BusCycles: int64(seq), WiredOrCycles: int64(dest), ShiftSteps: int64(iterations),
				RouterCycles: -int64(seq), GlobalOrOps: int64(n), PEOps: int64(len(data)), Instructions: int64(seq >> 7)},
			poolHit: tagged, batched: dest,
		})
	})
}

// TestWireEncodeCoversFields fails when DestResult, SessionRow,
// SolveResponse or ppa.Metrics gains, loses or reorders a field the
// encoders do not write: the keys of each encoded object, in order, must
// be the struct's JSON field names.
func TestWireEncodeCoversFields(t *testing.T) {
	r := result(1, 2, []int64{3, 0}, []int{1, -1})
	body := appendSolveResponse(nil, 2, 8, jobDone{results: []*core.Result{r}})
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		typ reflect.Type
		obj []byte
	}{
		{reflect.TypeOf(DestResult{}), appendRow(nil, nil, r)},
		{reflect.TypeOf(SessionRow{}), appendRow(nil, seqOf(9), r)},
		{reflect.TypeOf(SolveResponse{}), body},
		{reflect.TypeOf(ppa.Metrics{}), top["cost"]},
	} {
		if got, want := objectKeys(t, c.obj), fieldNames(c.typ); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: encoder writes keys %q, struct has %q", c.typ, got, want)
		}
	}
}

// fieldNames lists the JSON keys encoding/json writes for a struct type.
func fieldNames(typ reflect.Type) []string {
	var names []string
	for _, f := range reflect.VisibleFields(typ) {
		if f.Anonymous || !f.IsExported() {
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" {
			name = f.Name
		}
		names = append(names, name)
	}
	return names
}

// objectKeys lists the keys of a JSON object in the order written.
func objectKeys(t *testing.T, obj []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(obj))
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// benchRow is a ppabench-shaped row: one destination of a random
// connected n=64 graph, solved.
func benchRow(t testing.TB) *core.Result {
	g := graph.GenRandomConnected(64, 0.3, 9, 1)
	r, err := core.Solve(g, 5, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestWireEncodeAllocs pins the row and /v1/solve body encoders at zero
// allocations once their buffer has grown to the encoded size.
func TestWireEncodeAllocs(t *testing.T) {
	r := benchRow(t)
	seq := uint64(12345)
	buf := appendRow(nil, &seq, r)
	for _, tagged := range []bool{false, true} {
		s := &seq
		if !tagged {
			s = nil
		}
		allocs := testing.AllocsPerRun(100, func() {
			buf = appendRow(buf[:0], s, r)
		})
		if allocs != 0 {
			t.Errorf("encoding an n=64 row (tagged %v) into a warmed buffer: %.0f allocations, want 0", tagged, allocs)
		}
	}
	d := jobDone{results: []*core.Result{r, r}, cost: r.Metrics, batched: 1}
	buf = appendSolveResponse(buf[:0], 64, 8, d)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = appendSolveResponse(buf[:0], 64, 8, d)
	}); allocs != 0 {
		t.Errorf("encoding a 2-result n=64 /v1/solve body into a warmed buffer: %.0f allocations, want 0", allocs)
	}
}

// BenchmarkWireEncode times encoding one n=64 row, and a two-row
// /v1/solve body: the append encoders against the encoding/json paths
// they replaced.
func BenchmarkWireEncode(b *testing.B) {
	r := benchRow(b)
	seq := uint64(7)
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		buf := appendRow(nil, &seq, r)
		for i := 0; i < b.N; i++ {
			buf = appendRow(buf[:0], &seq, r)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := 0; i < b.N; i++ {
			buf.Reset()
			_ = enc.Encode(SessionRow{Seq: seq, DestResult: toDestResult(r)})
		}
	})
	// A ppabench-shaped /v1/solve body: two n=64 results.
	d := jobDone{results: []*core.Result{r, r}, cost: r.Metrics, batched: 1}
	b.Run("solve-append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = appendSolveResponse(make([]byte, 0, 128+len(d.results)*(16*64+48)), 64, 8, d)
		}
		_ = buf
	})
	b.Run("solve-encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := 0; i < b.N; i++ {
			buf.Reset()
			_ = enc.Encode(SolveResponse{
				N: 64, Bits: 8, Results: []DestResult{toDestResult(r), toDestResult(r)},
				Cost: d.cost, Batched: d.batched,
			})
		}
	})
}

// TestRepooledSessionKeepsResults pins what lets runBatch hand jobs the
// core.Result itself instead of a copy: a session put back in the pool,
// reloaded with another graph and solved again never writes into a
// Result it returned before.
func TestRepooledSessionKeepsResults(t *testing.T) {
	p := NewPool(4, 0, 0)
	g1 := graph.GenRandomConnected(16, 0.3, 9, 1)
	g2 := graph.GenRandomConnected(16, 0.3, 9, 2)
	sess, _, err := p.Get(g1, 8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sess.Solve(3)
	if err != nil {
		t.Fatal(err)
	}
	want := appendRow(nil, nil, r)
	p.Put(sess)
	again, hit, err := p.Get(g2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || again != sess {
		t.Fatal("the pool did not hand back the repooled session")
	}
	for d := 0; d < g2.N; d++ {
		if _, err := again.Solve(d); err != nil {
			t.Fatal(err)
		}
	}
	if got := appendRow(nil, nil, r); !bytes.Equal(got, want) {
		t.Errorf("a Result changed after its session was repooled:\n got %s\nwant %s", got, want)
	}
}
