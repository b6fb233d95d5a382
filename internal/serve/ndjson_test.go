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
)

// The encoding/json forms the row encoder replaced are its oracle: the
// stream paths used to write toDestResult(r), or a SessionRow around it,
// through json.Encoder.

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
// a core.Result can carry encodes to encoding/json's bytes, untagged and
// as a session row. Each 9-byte chunk of data is one vertex: a selector
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
	})
}

// TestWireEncodeCoversFields fails when DestResult or SessionRow gains,
// loses or reorders a field the encoder does not write: the keys of an
// encoded row, in order, must be the structs' JSON field names.
func TestWireEncodeCoversFields(t *testing.T) {
	r := result(1, 2, []int64{3, 0}, []int{1, -1})
	for _, c := range []struct {
		typ reflect.Type
		seq *uint64
	}{
		{reflect.TypeOf(DestResult{}), nil},
		{reflect.TypeOf(SessionRow{}), seqOf(9)},
	} {
		var want []string
		for _, f := range reflect.VisibleFields(c.typ) {
			if f.Anonymous || !f.IsExported() {
				continue
			}
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				name = f.Name
			}
			want = append(want, name)
		}
		dec := json.NewDecoder(bytes.NewReader(appendRow(nil, c.seq, r)))
		var got []string
		if _, err := dec.Token(); err != nil {
			t.Fatal(err)
		}
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, key.(string))
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: encoder writes keys %q, struct has %q", c.typ, got, want)
		}
	}
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

// TestWireEncodeAllocs pins the row encoder at zero allocations once its
// buffer has grown to the row size.
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
}

// BenchmarkWireEncode times encoding one n=64 row: the append encoder
// against the encoding/json path it replaced.
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
}
