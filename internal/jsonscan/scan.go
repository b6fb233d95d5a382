// Package jsonscan is the request path's one-pass JSON reader: a cursor
// over a complete JSON document that decodes the few shapes the wire
// types need (objects with case-folded keys, integer arrays, integers)
// without reflection, and skips everything else while validating it.
//
// Its contract is encoding/json's for the same Go types: a document is
// accepted exactly when json.Unmarshal would accept it into the
// corresponding struct, and decodes to the same values. That covers the
// strict number grammar and string escapes, the 10000-level nesting
// limit, unknown keys skipped, duplicate keys resolved last-wins, keys
// matched with bytes.EqualFold, null leaving scalars untouched, and
// integer overflow, fractions and exponents rejected. Error text is not
// part of the contract.
package jsonscan

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// MaxDepth is encoding/json's nesting limit: objects and arrays may nest
// this deep (the outermost counting as 1), and no deeper.
const MaxDepth = 10000

// Scanner is a cursor over one JSON document.
type Scanner struct {
	data  []byte
	pos   int
	depth int
}

// New returns a scanner positioned before the document's first value.
func New(data []byte) *Scanner { return &Scanner{data: data} }

// ws returns the index of the first non-whitespace byte at or after pos.
func ws(data []byte, pos int) int {
	for pos < len(data) && data[pos] <= ' ' && (data[pos] == ' ' || data[pos] == '\n' || data[pos] == '\t' || data[pos] == '\r') {
		pos++
	}
	return pos
}

func (s *Scanner) skipWS() { s.pos = ws(s.data, s.pos) }

// Offset returns the cursor's byte offset in the document.
func (s *Scanner) Offset() int { return s.pos }

// Peek returns the first byte of the next value (after whitespace), or 0
// at end of input.
func (s *Scanner) Peek() byte {
	s.skipWS()
	if s.pos == len(s.data) {
		return 0
	}
	return s.data[s.pos]
}

// syntaxError reports the byte at pos as a syntax error in the words
// encoding/json uses.
func syntaxError(data []byte, pos int, context string) error {
	if pos >= len(data) {
		return fmt.Errorf("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %s %s", quoteChar(data[pos]), context)
}

func (s *Scanner) invalid(context string) error { return syntaxError(s.data, s.pos, context) }

func quoteChar(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	s := strconv.Quote(string(rune(c)))
	return "'" + s[1:len(s)-1] + "'"
}

var errDepth = errors.New("exceeded max depth")

// End checks that only whitespace follows the value just read.
func (s *Scanner) End() error {
	s.skipWS()
	if s.pos != len(s.data) {
		return s.invalid("after top-level value")
	}
	return nil
}

// Null consumes a null literal if one is next.
func (s *Scanner) Null() bool {
	s.skipWS()
	if bytes.HasPrefix(s.data[s.pos:], []byte("null")) {
		s.pos += 4
		return true
	}
	return false
}

// Object reads an object, calling member with each key's raw bytes (as
// written between the quotes) and the cursor before the key's value;
// member must consume exactly that value. The caller has checked that an
// object is next (Peek() == '{').
func (s *Scanner) Object(member func(key []byte) error) error {
	if s.depth++; s.depth > MaxDepth {
		return errDepth
	}
	s.pos = ws(s.data, s.pos+1)
	if s.pos < len(s.data) && s.data[s.pos] == '}' {
		s.pos++
		s.depth--
		return nil
	}
	for {
		if s.pos >= len(s.data) || s.data[s.pos] != '"' {
			return s.invalid("looking for beginning of object key string")
		}
		end, err := skipString(s.data, s.pos)
		if err != nil {
			return err
		}
		key := s.data[s.pos+1 : end-1]
		s.pos = ws(s.data, end)
		if s.pos >= len(s.data) || s.data[s.pos] != ':' {
			return s.invalid("after object key")
		}
		s.pos++
		if err := member(key); err != nil {
			return err
		}
		s.skipWS()
		switch {
		case s.pos < len(s.data) && s.data[s.pos] == ',':
			s.pos = ws(s.data, s.pos+1)
		case s.pos < len(s.data) && s.data[s.pos] == '}':
			s.pos++
			s.depth--
			return nil
		default:
			return s.invalid("after object key:value pair")
		}
	}
}

// Array reads an array, calling elem with each element's index and the
// cursor before it; elem must consume exactly that element. The caller
// has checked that an array is next (Peek() == '[').
func (s *Scanner) Array(elem func(i int) error) error {
	if s.depth++; s.depth > MaxDepth {
		return errDepth
	}
	s.pos = ws(s.data, s.pos+1)
	if s.pos < len(s.data) && s.data[s.pos] == ']' {
		s.pos++
		s.depth--
		return nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return err
		}
		s.skipWS()
		switch {
		case s.pos < len(s.data) && s.data[s.pos] == ',':
			s.pos++
		case s.pos < len(s.data) && s.data[s.pos] == ']':
			s.pos++
			s.depth--
			return nil
		default:
			return s.invalid("after array element")
		}
	}
}

// Skip validates the next value and returns its bytes.
func (s *Scanner) Skip() ([]byte, error) {
	start := ws(s.data, s.pos)
	end, err := skipValue(s.data, start, s.depth)
	s.pos = end
	if err != nil {
		return nil, err
	}
	return s.data[start:end], nil
}

// skipValue validates the value at data[pos:] (after whitespace), nested
// depth containers deep, and returns the index just past it or, on
// error, the index of the offending byte.
func skipValue(data []byte, pos, depth int) (int, error) {
	pos = ws(data, pos)
	if pos >= len(data) {
		return pos, syntaxError(data, pos, "looking for beginning of value")
	}
	var err error
	switch data[pos] {
	case '{':
		if depth++; depth > MaxDepth {
			return pos, errDepth
		}
		pos = ws(data, pos+1)
		if pos < len(data) && data[pos] == '}' {
			return pos + 1, nil
		}
		for {
			if pos >= len(data) || data[pos] != '"' {
				return pos, syntaxError(data, pos, "looking for beginning of object key string")
			}
			if pos, err = skipString(data, pos); err != nil {
				return pos, err
			}
			pos = ws(data, pos)
			if pos >= len(data) || data[pos] != ':' {
				return pos, syntaxError(data, pos, "after object key")
			}
			if pos, err = skipValue(data, pos+1, depth); err != nil {
				return pos, err
			}
			pos = ws(data, pos)
			switch {
			case pos < len(data) && data[pos] == ',':
				pos = ws(data, pos+1)
			case pos < len(data) && data[pos] == '}':
				return pos + 1, nil
			default:
				return pos, syntaxError(data, pos, "after object key:value pair")
			}
		}
	case '[':
		if depth++; depth > MaxDepth {
			return pos, errDepth
		}
		pos = ws(data, pos+1)
		if pos < len(data) && data[pos] == ']' {
			return pos + 1, nil
		}
		for {
			// Inline the common element, a plain integer followed
			// directly by ',' or ']'; anything else takes skipValue.
			end := pos
			if end < len(data) && data[end] == '0' {
				end++
			} else {
				end = digits(data, end)
			}
			if end == pos || end >= len(data) || (data[end] != ',' && data[end] != ']') {
				if end, err = skipValue(data, pos, depth); err != nil {
					return end, err
				}
			}
			pos = ws(data, end)
			switch {
			case pos < len(data) && data[pos] == ',':
				pos++
			case pos < len(data) && data[pos] == ']':
				return pos + 1, nil
			default:
				return pos, syntaxError(data, pos, "after array element")
			}
		}
	case '"':
		return skipString(data, pos)
	case 't':
		return skipLiteral(data, pos, "true")
	case 'f':
		return skipLiteral(data, pos, "false")
	case 'n':
		return skipLiteral(data, pos, "null")
	default:
		return skipNumber(data, pos)
	}
}

func skipLiteral(data []byte, pos int, lit string) (int, error) {
	for i := 0; i < len(lit); i, pos = i+1, pos+1 {
		if pos >= len(data) || data[pos] != lit[i] {
			return pos, syntaxError(data, pos, "in literal "+lit)
		}
	}
	return pos, nil
}

// skipString validates the string whose opening quote is at data[pos]
// and returns the index past its closing quote. Like encoding/json it
// rejects control bytes and malformed escapes but lets invalid UTF-8
// through.
func skipString(data []byte, pos int) (int, error) {
	for pos++; pos < len(data); {
		switch c := data[pos]; {
		case c == '"':
			return pos + 1, nil
		case c == '\\':
			pos++
			if pos >= len(data) {
				return pos, syntaxError(data, pos, "")
			}
			switch data[pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				pos++
			case 'u':
				pos++
				for k := 0; k < 4; k, pos = k+1, pos+1 {
					if pos >= len(data) || unhex(data[pos]) < 0 {
						return pos, syntaxError(data, pos, "in \\u hexadecimal character escape")
					}
				}
			default:
				return pos, syntaxError(data, pos, "in string escape code")
			}
		case c < 0x20:
			return pos, syntaxError(data, pos, "in string literal")
		default:
			pos++
		}
	}
	return pos, syntaxError(data, pos, "")
}

func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// skipNumber validates the number at data[pos] under the JSON grammar
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? and returns the index
// past it.
func skipNumber(data []byte, pos int) (int, error) {
	start := pos
	if pos < len(data) && data[pos] == '-' {
		pos++
	}
	switch {
	case pos < len(data) && data[pos] == '0':
		pos++
	case pos < len(data) && '1' <= data[pos] && data[pos] <= '9':
		pos = digits(data, pos+1)
	case pos == start:
		return pos, syntaxError(data, pos, "looking for beginning of value")
	default:
		return pos, syntaxError(data, pos, "in numeric literal")
	}
	if pos < len(data) && data[pos] == '.' {
		end := digits(data, pos+1)
		if end == pos+1 {
			return end, syntaxError(data, end, "after decimal point in numeric literal")
		}
		pos = end
	}
	if pos < len(data) && (data[pos] == 'e' || data[pos] == 'E') {
		pos++
		if pos < len(data) && (data[pos] == '+' || data[pos] == '-') {
			pos++
		}
		end := digits(data, pos)
		if end == pos {
			return end, syntaxError(data, end, "in exponent of numeric literal")
		}
		pos = end
	}
	return pos, nil
}

// digits returns the index past the run of decimal digits at data[pos:].
func digits(data []byte, pos int) int {
	for pos < len(data) && '0' <= data[pos] && data[pos] <= '9' {
		pos++
	}
	return pos
}

// number reads a number literal at the cursor.
func (s *Scanner) number() ([]byte, error) {
	start := s.pos
	end, err := skipNumber(s.data, start)
	s.pos = end
	if err != nil {
		return nil, err
	}
	return s.data[start:end], nil
}

// TypeError reads past the next value (so a syntax error in it still
// wins, as in encoding/json) and reports that it cannot fill a Go value
// of type goType; decoders call it for a value of the wrong shape.
func (s *Scanner) TypeError(goType string) error {
	c := s.Peek()
	if _, err := s.Skip(); err != nil {
		return err
	}
	kind := "number"
	switch c {
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case '"':
		kind = "string"
	case 't', 'f':
		kind = "bool"
	}
	return fmt.Errorf("cannot unmarshal %s into Go value of type %s", kind, goType)
}

// Int reads a number into an int64 the way encoding/json fills an int or
// int64: the literal must be an integer (no fraction or exponent, "-0"
// allowed) that fits in 64 bits. A non-number is a type error; the
// caller handles null first.
func (s *Scanner) Int() (int64, error) {
	c := s.Peek()
	if c != '-' && (c < '0' || c > '9') {
		return 0, s.TypeError("int64")
	}
	lit, err := s.number()
	if err != nil {
		return 0, err
	}
	neg := lit[0] == '-'
	digits := lit
	if neg {
		digits = lit[1:]
	}
	u, ok := parseDigits(digits)
	switch {
	case !ok:
	case !neg && u <= 1<<63-1:
		return int64(u), nil
	case neg && u <= 1<<63:
		return -int64(u), nil
	}
	return 0, fmt.Errorf("cannot unmarshal number %s into Go value of type int64", lit)
}

// Uint reads a number the way encoding/json fills a uint: a non-negative
// integer literal (not even "-0") that fits in 64 bits.
func (s *Scanner) Uint() (uint64, error) {
	c := s.Peek()
	if c != '-' && (c < '0' || c > '9') {
		return 0, s.TypeError("uint")
	}
	lit, err := s.number()
	if err != nil {
		return 0, err
	}
	if u, ok := parseDigits(lit); ok {
		return u, nil
	}
	return 0, fmt.Errorf("cannot unmarshal number %s into Go value of type uint", lit)
}

// parseDigits parses a run of decimal digits, failing on any other byte
// and on uint64 overflow.
func parseDigits(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var u uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if u > (1<<64-1)/10 {
			return 0, false
		}
		u *= 10
		d := uint64(c - '0')
		if u+d < u {
			return 0, false
		}
		u += d
	}
	return u, true
}

// Triple reads the array at the cursor if it is spelled [a,b,c]: three
// integer literals of at most 18 digits, no sign, no whitespace, the
// spelling encoders emit for an edge. Anything else reports false and
// leaves the cursor in place for Ints to read with the general rules.
func (s *Scanner) Triple() (t [3]int64, ok bool) {
	data, pos := s.data, ws(s.data, s.pos)
	if pos >= len(data) || data[pos] != '[' || s.depth >= MaxDepth {
		return t, false
	}
	for k := 0; k < 3; k++ {
		pos++
		start := pos
		var v int64
		for pos < len(data) && '0' <= data[pos] && data[pos] <= '9' {
			v = v*10 + int64(data[pos]-'0')
			pos++
		}
		if n := pos - start; n == 0 || n > 18 || (n > 1 && data[start] == '0') {
			return t, false
		}
		t[k] = v
		if pos >= len(data) || data[pos] != ",,]"[k] {
			return t, false
		}
	}
	s.pos = pos + 1
	return t, true
}

// Ints reads an array of integers into dst exactly as encoding/json
// decodes into an existing []T: null yields nil and [] a fresh empty
// slice; otherwise element i overwrites dst's backing array in place
// (growing it when full), a null element leaves whatever that slot held,
// and the result is truncated to the element count.
func Ints[T int | int64](s *Scanner, dst []T) ([]T, error) {
	if s.Null() {
		return nil, nil
	}
	if s.Peek() != '[' {
		return dst, s.TypeError("[]int")
	}
	n := 0
	err := s.Array(func(i int) error {
		if i < cap(dst) {
			dst = dst[:i+1]
		} else {
			dst = append(dst, 0)
		}
		n = i + 1
		if s.Null() {
			return nil
		}
		v, err := s.Int()
		dst[i] = T(v)
		return err
	})
	if err != nil {
		return dst, err
	}
	if n == 0 {
		return []T{}, nil
	}
	return dst[:n], nil
}

// String reads a string value and returns it unescaped. A non-string is
// a type error.
func (s *Scanner) String() (string, error) {
	if s.Peek() != '"' {
		return "", s.TypeError("string")
	}
	start := s.pos
	end, err := skipString(s.data, start)
	s.pos = end
	if err != nil {
		return "", err
	}
	return string(unquote(s.data[start+1 : end-1])), nil
}

// KeyIs reports whether the raw object key matches a field name the way
// encoding/json matches keys to struct fields: after unescaping, equal
// under bytes.EqualFold.
func KeyIs(key []byte, name string) bool {
	if bytes.IndexByte(key, '\\') >= 0 {
		key = unquote(key)
	}
	return bytes.EqualFold(key, []byte(name))
}

// unquote decodes the escapes in a validated string body, replacing
// invalid UTF-8 and unpaired surrogates with U+FFFD as encoding/json does.
func unquote(raw []byte) []byte {
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			e := raw[i+1]
			i += 2
			switch e {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(raw[i:])
				i += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
						r2 = hex4(raw[i+2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						i += 6
						r = dec
					} else {
						r = utf8.RuneError
					}
				}
				out = utf8.AppendRune(out, r)
			default: // '"', '\\', '/'
				out = append(out, e)
			}
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	return out
}

func hex4(b []byte) rune {
	return unhex(b[0])<<12 | unhex(b[1])<<8 | unhex(b[2])<<4 | unhex(b[3])
}
