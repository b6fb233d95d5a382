package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ppamcp/internal/graph"
)

// The encoding/json forms the one-pass decoders replaced. They are the
// oracle: the decoders must accept exactly what these accept and produce
// the same values (error text may differ).

// oracleGraph is the reflection graph decoder: json.Unmarshal into
// {n, edges [][]int64}, then the admission checks.
func oracleGraph(data []byte, maxN int) (*graph.Graph, error) {
	var wire struct {
		N     int       `json:"n"`
		Edges [][]int64 `json:"edges"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, err
	}
	if wire.N < 1 || wire.N > maxN {
		return nil, fmt.Errorf("n = %d outside [1, %d]", wire.N, maxN)
	}
	g := graph.New(wire.N)
	for k, e := range wire.Edges {
		if len(e) != 3 {
			return nil, fmt.Errorf("edge %d: arity %d", k, len(e))
		}
		i, j, wt := e[0], e[1], e[2]
		if i < 0 || i >= int64(g.N) || j < 0 || j >= int64(g.N) || wt < 0 {
			return nil, fmt.Errorf("edge %d: bad triple %v", k, e)
		}
		g.W[i*int64(g.N)+j] = wt
	}
	return g, nil
}

func oracleSolve(body []byte) (SolveRequest, error) {
	var req SolveRequest
	err := json.Unmarshal(body, &req)
	return req, err
}

func oracleAllPairs(body []byte) (AllPairsRequest, error) {
	var req AllPairsRequest
	err := json.Unmarshal(body, &req)
	return req, err
}

// oracleSessionCreate is the session-create decoder: the wire struct with
// dests kept raw, then the list-or-"all" interpretation.
func oracleSessionCreate(body []byte) (SessionCreateRequest, error) {
	var w struct {
		Graph json.RawMessage `json:"graph,omitempty"`
		Gen   json.RawMessage `json:"gen,omitempty"`
		Dests json.RawMessage `json:"dests"`
		Bits  uint            `json:"bits,omitempty"`
	}
	if err := json.Unmarshal(body, &w); err != nil {
		return SessionCreateRequest{}, err
	}
	r := SessionCreateRequest{Graph: w.Graph, Gen: w.Gen, Bits: w.Bits}
	if len(w.Dests) == 0 || string(w.Dests) == "null" {
		return r, nil
	}
	var kw string
	if err := json.Unmarshal(w.Dests, &kw); err == nil {
		if kw != "all" {
			return SessionCreateRequest{}, fmt.Errorf("unknown keyword %q", kw)
		}
		r.AllDests = true
		return r, nil
	}
	err := json.Unmarshal(w.Dests, &r.Dests)
	return r, err
}

const wireMaxN = 64

// checkParity runs every decoder and its oracle on src and fails on any
// difference in the accept/reject decision or the decoded values. It
// returns the names of the request kinds that accept src, where an
// envelope counts as accepted when its graph also builds.
func checkParity(t *testing.T, src []byte) string {
	t.Helper()
	var accepted []string
	same := func(kind string, got, want any, gotErr, wantErr error) bool {
		t.Helper()
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: decoder err = %v, encoding/json err = %v\ninput %q", kind, gotErr, wantErr, src)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded %+v, encoding/json %+v\ninput %q", kind, got, want, src)
		}
		return gotErr == nil
	}
	// sameGraph compares an inline graph's decode and reports whether
	// the request's graph builds.
	sameGraph := func(kind string, raw, gen json.RawMessage) bool {
		t.Helper()
		if len(raw) == 0 || len(gen) > 0 {
			r := SolveRequest{Graph: raw, Gen: gen}
			_, err := r.BuildGraph(wireMaxN)
			return err == nil
		}
		got, gotErr := graph.DecodeJSON(raw, wireMaxN)
		want, wantErr := oracleGraph(raw, wireMaxN)
		return same(kind+" graph", got, want, gotErr, wantErr)
	}

	got, gotErr := graph.DecodeJSON(src, wireMaxN)
	want, wantErr := oracleGraph(src, wireMaxN)
	if same("graph", got, want, gotErr, wantErr) {
		accepted = append(accepted, "graph")
	}
	sr, srErr := DecodeSolveRequest(src)
	wsr, wsrErr := oracleSolve(src)
	if same("solve", sr, wsr, srErr, wsrErr) && sameGraph("solve", sr.Graph, sr.Gen) {
		accepted = append(accepted, "solve")
	}
	ar, arErr := AllPairsRequest(sr), srErr
	war, warErr := oracleAllPairs(src)
	if same("allpairs", ar, war, arErr, warErr) && sameGraph("allpairs", ar.Graph, ar.Gen) {
		accepted = append(accepted, "allpairs")
	}
	sc, scErr := decodeSessionCreateRequest(src)
	wsc, wscErr := oracleSessionCreate(src)
	if same("session", sc, wsc, scErr, wscErr) && sameGraph("session", sc.Graph, sc.Gen) {
		accepted = append(accepted, "session")
	}
	return strings.Join(accepted, " ")
}

// wtest is one named decoder case: src is run through every decoder and
// its oracle, and res names the kinds that accept it.
type wtest struct {
	n, src, res string
}

const envOK = "solve allpairs session"

func nested(depth int) string {
	return strings.Repeat("[", depth) + strings.Repeat("]", depth)
}

var wireTests = []wtest{
	{n: "plain", src: `{"graph":{"n":2,"edges":[[0,1,3]]},"dests":[1]}`, res: envOK},
	{n: "graph alone", src: `{"n":2,"edges":[[0,1,3]]}`, res: "graph"},
	{n: "whitespace", src: " \t\r\n{ \"n\" : 2 , \"edges\" : [ [ 0 , 1 , 3 ] ] }\n", res: "graph"},
	{n: "gen", src: `{"gen":{"gen":"chain","n":4},"dests":[0]}`, res: envOK},

	// Keys match field names as bytes.EqualFold does.
	{n: "folded N", src: `{"N":2,"edges":[[0,1,3]]}`, res: "graph"},
	{n: "folded edgeſ", src: `{"n":2,"edgeſ":[[0,1,3]]}`, res: "graph"},
	{n: "folded envelope", src: `{"GRAPH":{"n":2,"Edges":[]},"Dests":[0],"BITS":8,"Timeout_MS":5}`, res: envOK},
	{n: "folded deſtſ", src: `{"graph":{"n":2},"deſtſ":[1]}`, res: envOK},
	{n: "escaped key", src: `{"gr\u0061ph":{"\u006e":2,"edges":[]},"dests":[1]}`, res: envOK},
	{n: "escaped ſ key", src: `{"graph":{"n":2,"edge\u017f":[[0,1,3]]},"dests":[0]}`, res: envOK},
	{n: "near-miss key", src: `{"graph":{"n":2},"destss":[1],"dests ":[0]}`, res: envOK},
	{n: "surrogate key", src: `{"graph":{"n":2},"\ud83d\ude00":1,"\udc00":2,"\ud800x":3,"dests":[1]}`, res: envOK},

	// Unknown fields are validated and skipped.
	{n: "unknown nested", src: `{"x":{"a":[1,{"b":null}],"c":"é\n"},"graph":{"n":1,"meta":[[[]],{}]},"dests":[0]}`, res: envOK},
	{n: "unknown literals", src: `{"graph":{"n":1},"t":true,"f":false,"z":null,"e":"","":0,"dests":[0]}`, res: envOK},
	{n: "unknown bad literal", src: `{"graph":{"n":1},"t":tru,"dests":[0]}`},
	{n: "unknown bad escape", src: `{"graph":{"n":1},"s":"\x","dests":[0]}`},
	{n: "unknown short unicode escape", src: `{"graph":{"n":1},"s":"\u12","dests":[0]}`},
	{n: "control byte in string", src: "{\"graph\":{\"n\":1},\"s\":\"a\tb\",\"dests\":[0]}"},
	{n: "trailing comma", src: `{"graph":{"n":1},"dests":[0],}`},
	{n: "array trailing comma", src: `{"graph":{"n":1},"dests":[0,]}`},
	{n: "missing colon", src: `{"graph" {"n":1},"dests":[0]}`},

	// Duplicate keys: last wins, reusing the slices encoding/json reuses.
	{n: "duplicate keys", src: `{"graph":{"n":9},"graph":{"n":2,"edges":[[0,1,1]],"n":3},"dests":[2],"dests":[1]}`, res: envOK},
	{n: "duplicate edges", src: `{"n":2,"edges":[[0,1,5],[1,0,4]],"edges":[[1,1,2]]}`, res: "graph"},
	{n: "duplicate edges null slots", src: `{"n":3,"edges":[[0,1,5],[2,2,2]],"edges":[[2,1,7]],"edges":[[null,null,null],[null,null,null]]}`, res: "graph"},
	{n: "duplicate edges short slot", src: `{"n":3,"edges":[[0,1,5,6]],"edges":[[0,1]],"edges":[[null,null,null]]}`, res: "graph"},
	{n: "duplicate edges reset by null", src: `{"n":3,"edges":[[0,1,5]],"edges":null,"edges":[[null,2,null]]}`, res: "graph"},
	{n: "duplicate edges reset by empty", src: `{"n":3,"edges":[[0,1,5]],"edges":[],"edges":[[null,2,null]]}`, res: "graph"},
	{n: "duplicate dests null slots", src: `{"graph":{"n":4},"dests":[1,2,3],"dests":[3],"dests":[null,null]}`, res: envOK},
	{n: "edges before n", src: `{"edges":[[2,0,1]],"n":3}`, res: "graph"},
	{n: "edges before n, bad element", src: `{"edges":[[2,0,"1"]],"n":3}`},
	{n: "n raised after edges", src: `{"n":2,"edges":[[0,2,1]],"n":3}`, res: "graph"},
	{n: "n lowered after edges", src: `{"n":3,"edges":[[0,2,1]],"n":2}`},
	{n: "short triple then fixed", src: `{"n":2,"edges":[[0,1]],"edges":[[0,1,1]]}`, res: "graph"},
	{n: "bad triple then more", src: `{"n":2,"edges":[[0,5,1],[0,1,"x"]]}`},

	// null leaves scalars untouched and clears slices.
	{n: "null fields", src: `{"graph":{"n":2,"edges":null},"dests":null,"bits":null,"timeout_ms":null}`, res: envOK},
	{n: "null after value", src: `{"graph":{"n":2,"n":null},"bits":8,"bits":null,"dests":[0]}`, res: envOK},
	{n: "null graph", src: `{"graph":null,"dests":[0]}`},
	{n: "null gen", src: `{"graph":{"n":1},"gen":null,"dests":[0]}`},
	{n: "null n", src: `{"n":null,"edges":[]}`},
	{n: "null edge", src: `{"n":2,"edges":[null]}`},
	{n: "null in triple", src: `{"n":2,"edges":[[0,1,null]]}`, res: "graph"},
	{n: "null dest", src: `{"graph":{"n":2},"dests":[null,1]}`, res: envOK},
	{n: "null body", src: `null`},
	{n: "null session dests", src: `{"graph":{"n":2},"dests":null}`, res: envOK},

	// Numbers: strict grammar; integers only, within 64 bits.
	{n: "float n", src: `{"n":2.0,"edges":[]}`},
	{n: "float weight", src: `{"n":2,"edges":[[0,1,1.5]]}`},
	{n: "float dest", src: `{"graph":{"n":2},"dests":[0.0]}`},
	{n: "float bits", src: `{"graph":{"n":2},"dests":[0],"bits":8.0}`},
	{n: "exponent n", src: `{"n":2e0,"edges":[]}`},
	{n: "exponent unknown", src: `{"graph":{"n":1},"x":-1.5E+2,"y":0e-0,"dests":[0]}`, res: envOK},
	{n: "bad exponent", src: `{"graph":{"n":1},"x":1e,"dests":[0]}`},
	{n: "bad fraction", src: `{"graph":{"n":1},"x":1.,"dests":[0]}`},
	{n: "leading dot", src: `{"graph":{"n":1},"x":.5,"dests":[0]}`},
	{n: "leading zero", src: `{"graph":{"n":2},"dests":[01]}`},
	{n: "leading zero unknown", src: `{"graph":{"n":1},"x":00,"dests":[0]}`},
	{n: "plus sign", src: `{"graph":{"n":1},"dests":[+0]}`},
	{n: "lone minus", src: `{"graph":{"n":1},"dests":[-]}`},
	{n: "negative zero dest", src: `{"graph":{"n":2},"dests":[-0]}`, res: envOK},
	{n: "negative zero bits", src: `{"graph":{"n":2},"dests":[0],"bits":-0}`},
	{n: "negative bits", src: `{"graph":{"n":2},"dests":[0],"bits":-1}`},
	{n: "max uint bits", src: `{"graph":{"n":2},"dests":[0],"bits":18446744073709551615}`, res: envOK},
	{n: "overflow bits", src: `{"graph":{"n":2},"dests":[0],"bits":18446744073709551616}`},
	{n: "max timeout", src: `{"graph":{"n":2},"dests":[0],"timeout_ms":9223372036854775807}`, res: envOK},
	{n: "min timeout", src: `{"graph":{"n":2},"dests":[0],"timeout_ms":-9223372036854775808}`, res: envOK},
	{n: "overflow timeout", src: `{"graph":{"n":2},"dests":[0],"timeout_ms":9223372036854775808}`, res: "session"},
	{n: "overflow weight", src: `{"n":2,"edges":[[0,1,9223372036854775808]]}`},
	{n: "max weight", src: `{"n":2,"edges":[[0,1,9223372036854775807]]}`, res: "graph"},
	{n: "spaced triple", src: `{"n":2,"edges":[ [ 0,1 ,2] ,[1, 0, 3 ]]}`, res: "graph"},
	{n: "leading zero weight", src: `{"n":2,"edges":[[0,1,01]]}`},
	{n: "18-digit weight", src: `{"n":2,"edges":[[0,1,123456789012345678]]}`, res: "graph"},
	{n: "19-digit weight", src: `{"n":2,"edges":[[0,1,1234567890123456789]]}`, res: "graph"},
	{n: "negative zero vertex", src: `{"n":2,"edges":[[-0,1,2]]}`, res: "graph"},
	{n: "unknown number array", src: `{"graph":{"n":1},"x":[0,1,-2,2.5,1e5,0.0],"dests":[0]}`, res: envOK},
	{n: "unknown leading zero in array", src: `{"graph":{"n":1},"x":[1,01],"dests":[0]}`},
	{n: "unknown double zero in array", src: `{"graph":{"n":1},"x":[00],"dests":[0]}`},
	{n: "string number", src: `{"n":"2","edges":[]}`},
	{n: "string timeout", src: `{"graph":{"n":1},"dests":[0],"timeout_ms":"5"}`, res: "session"},
	{n: "bool bits", src: `{"graph":{"n":1},"dests":[0],"bits":true}`},

	// Graph admission checks.
	{n: "short triple", src: `{"n":2,"edges":[[0,1]]}`},
	{n: "long triple", src: `{"n":2,"edges":[[0,1,2,3]]}`},
	{n: "empty triple", src: `{"n":2,"edges":[[]]}`},
	{n: "edges object", src: `{"n":2,"edges":{}}`},
	{n: "edge object", src: `{"n":2,"edges":[{}]}`},
	{n: "edge string", src: `{"n":2,"edges":[[0,"1",2]]}`},
	{n: "from out of range", src: `{"n":2,"edges":[[2,1,3]]}`},
	{n: "to out of range", src: `{"n":2,"edges":[[0,5,3]]}`},
	{n: "negative vertex", src: `{"n":2,"edges":[[-1,0,3]]}`},
	{n: "negative weight", src: `{"n":2,"edges":[[0,1,-3]]}`},
	{n: "repeated edge", src: `{"n":2,"edges":[[0,1,5],[0,1,9]]}`, res: "graph"},
	{n: "zero n", src: `{"n":0,"edges":[]}`},
	{n: "negative n", src: `{"n":-3}`},
	{n: "missing n", src: `{"edges":[[0,0,1]]}`},
	{n: "max n", src: fmt.Sprintf(`{"n":%d}`, wireMaxN), res: "graph"},
	{n: "n over limit", src: fmt.Sprintf(`{"n":%d}`, wireMaxN+1)},
	{n: "n over MaxParseVertices", src: `{"n":99999999,"edges":[]}`},
	{n: "graph not object", src: `{"graph":[1,2],"dests":[0]}`},

	// dests on a session is a list or the keyword "all".
	{n: "dests all", src: `{"graph":{"n":3},"dests":"all"}`, res: "session"},
	{n: "dests escaped all", src: `{"graph":{"n":3},"dests":"\u0061ll"}`, res: "session"},
	{n: "dests All", src: `{"graph":{"n":3},"dests":"All"}`},
	{n: "dests unknown keyword", src: `{"graph":{"n":3},"dests":"everything"}`},
	{n: "dests all then list", src: `{"graph":{"n":3},"dests":"all","dests":[1]}`, res: "session"},
	{n: "dests list then all", src: `{"graph":{"n":3},"dests":[1],"dests":"all"}`, res: "session"},
	{n: "dests object", src: `{"graph":{"n":3},"dests":{}}`},
	{n: "dests empty", src: `{"graph":{"n":3},"dests":[]}`, res: envOK},

	// The body is exactly one value.
	{n: "trailing data", src: `{"graph":{"n":1},"dests":[0]} garbage`},
	{n: "trailing value", src: `{"graph":{"n":1},"dests":[0]}{}`},
	{n: "trailing whitespace", src: "{\"graph\":{\"n\":1},\"dests\":[0]} \n", res: envOK},
	{n: "empty body", src: ``},
	{n: "blank body", src: " \n"},
	{n: "truncated", src: `{"graph":{"n":1},"dests":[0]`},
	{n: "array body", src: `[]`},
	{n: "number body", src: `5`},
	{n: "string body", src: `"graph"`},

	// Invalid UTF-8 passes inside strings and nowhere else.
	{n: "invalid UTF-8 in value", src: "{\"graph\":{\"n\":1},\"x\":\"\xff\xfe\",\"dests\":[0]}", res: envOK},
	{n: "invalid UTF-8 in key", src: "{\"graph\":{\"n\":1},\"dests\xff\":[5],\"dests\":[0]}", res: envOK},
	{n: "invalid UTF-8 outside", src: "{\"graph\":{\"n\":1},\"dests\":[0]}\xff"},
	{n: "dests invalid UTF-8 keyword", src: "{\"graph\":{\"n\":1},\"dests\":\"all\xff\"}"},

	// Nesting: 10000 levels (the body object counting as one) and no more.
	{n: "depth 10000", src: `{"graph":{"n":1},"dests":[0],"x":` + nested(9999) + `}`, res: envOK},
	{n: "depth 10001", src: `{"graph":{"n":1},"dests":[0],"x":` + nested(10000) + `}`},
	{n: "deep graph value", src: `{"n":1,"edges":` + nested(9999) + `}`},
	{n: "deep graph too deep", src: `{"n":1,"x":` + nested(10000) + `}`},
}

func gen(test wtest) func(*testing.T) {
	return func(t *testing.T) {
		if res := checkParity(t, []byte(test.src)); res != test.res {
			t.Errorf("accepted by %q, want %q", res, test.res)
		}
	}
}

// TestWireDecodeCases runs the named cases through every decoder and its
// encoding/json oracle.
func TestWireDecodeCases(t *testing.T) {
	for _, test := range wireTests {
		t.Run(test.n, gen(test))
	}
}

// FuzzWireDecode is the differential fuzzer for the request decoders:
// graph JSON, and the solve, all-pairs and session-create envelopes must
// accept exactly what encoding/json accepts, with identical values.
func FuzzWireDecode(f *testing.F) {
	for _, test := range wireTests {
		f.Add(test.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkParity(t, []byte(src))
	})
}

// benchBody is a ppabench-shaped /v1/solve body: an inline random
// connected n=64 graph of density 0.3, weights 1-9, and two dests.
func benchBody() []byte {
	g := graph.GenRandomConnected(64, 0.3, 9, 1)
	gj, err := json.Marshal(g)
	if err != nil {
		panic(err)
	}
	return []byte(fmt.Sprintf(`{"graph":%s,"dests":[5,41]}`, gj))
}

// decodeSolve is the request path's decode stage: the envelope, then the
// inline graph.
func decodeSolve(body []byte) (*graph.Graph, error) {
	req, err := DecodeSolveRequest(body)
	if err != nil {
		return nil, err
	}
	return req.BuildGraph(graph.MaxParseVertices)
}

var benchGraph *graph.Graph

// BenchmarkDecodeSolveRequest times decoding the benchmark body: the
// one-pass decoder against the encoding/json oracle it replaced.
func BenchmarkDecodeSolveRequest(b *testing.B) {
	body := benchBody()
	b.Run("onepass", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := decodeSolve(body)
			if err != nil {
				b.Fatal(err)
			}
			benchGraph = g
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req, err := oracleSolve(body)
			if err != nil {
				b.Fatal(err)
			}
			g, err := oracleGraph(req.Graph, graph.MaxParseVertices)
			if err != nil {
				b.Fatal(err)
			}
			benchGraph = g
		}
	})
}

// TestDecodeSolveRequestAllocs pins the decode stage's allocations on the
// benchmark body (the encoding/json path takes ~3,700).
func TestDecodeSolveRequestAllocs(t *testing.T) {
	body := benchBody()
	if _, err := decodeSolve(body); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		benchGraph, _ = decodeSolve(body)
	})
	if allocs > 8 {
		t.Errorf("decoding a %d-byte n=64 body: %.0f allocations, want <= 8", len(body), allocs)
	}
}

// TestDecodeRandomGraphs round-trips random graphs through both decoders,
// inside a solve envelope with folded keys and unknown fields.
func TestDecodeRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(wireMaxN)
		g := graph.GenRandom(n, rng.Float64(), 1+rng.Int63n(1<<40), rng.Int63())
		gj, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf(`{"x":[{"y":%d}],"Graph":%s,"DESTS":[%d],"bits":%d}`, trial, gj, rng.Intn(n), rng.Intn(64))
		if res := checkParity(t, []byte(body)); res != envOK {
			t.Fatalf("trial %d: accepted by %q, want %q", trial, res, envOK)
		}
		back, err := graph.DecodeJSON(gj, wireMaxN)
		if err != nil || !reflect.DeepEqual(back, g) {
			t.Fatalf("trial %d: round trip: %v", trial, err)
		}
	}
}
