package corpus

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"dart/internal/concolic"
	"dart/internal/machine"
	"dart/internal/token"
)

// decodeEntry parses an entry payload in one pass.  It accepts the
// bytes json.Marshal writes for an Entry — fields in declaration order,
// no whitespace, nothing after the closing brace — and rejects anything
// else, so the format has one writer (StoreEntry's json.Marshal) and a
// reader that never trusts more than that writer produces.  Whatever it
// accepts, json.Unmarshal also accepts and decodes to a deeply equal
// Entry (FuzzCorpusEntry).  A re-indented or hand-edited entry fails
// closed: the function is searched again and its entry rewritten.
//
// Each read first consumes the literal bytes json.Marshal writes before
// the value (punctuation and the field's key); Go evaluates the calls
// in a composite literal left to right, in the order of the bytes.
func decodeEntry(b []byte) (*Entry, bool) {
	d := decoder{b: b}
	e := &Entry{
		Function:   d.str(`{"function":`),
		IRHash:     d.str(`,"ir_hash":`),
		OptionsSig: d.str(`,"options_sig":`),
	}
	if d.open(`,"suite":`, "[") {
		e.Suite = []map[string]int64{}
		for n := 0; d.more(']', n); n++ {
			e.Suite = append(e.Suite, d.vector(""))
		}
	}
	// json.Marshal omits an empty Bugs, so a present one is an array.
	if d.skip(`,"bugs":[`) {
		e.Bugs = []concolic.Bug{}
		for n := 0; d.more(']', n); n++ {
			e.Bugs = append(e.Bugs, concolic.Bug{
				Kind:   machine.Outcome(d.int(`{"Kind":`)),
				Msg:    d.str(`,"Msg":`),
				Pos:    token.Pos{Line: d.int(`,"Pos":{"Line":`), Col: d.int(`,"Col":`)},
				Run:    d.int(`},"Run":`),
				Inputs: d.vector(`,"Inputs":`),
			})
			d.lit("}")
		}
	}
	if d.open(`,"cover":`, "[") {
		e.Cover = []SiteDir{}
		for n := 0; d.more(']', n); n++ {
			e.Cover = append(e.Cover, SiteDir{Fn: d.str(`{"fn":`), Ord: d.int(`,"ord":`), Taken: d.bool(`,"taken":`)})
			d.lit("}")
		}
	}
	e.Flags = Flags{
		Complete:        d.bool(`,"flags":{"complete":`),
		AllLinear:       d.bool(`,"all_linear":`),
		AllLocsDefinite: d.bool(`,"all_locs_definite":`),
		SolverComplete:  d.bool(`,"solver_complete":`),
	}
	if d.skip(`,"stopped":`) {
		e.Flags.Stopped = d.str("")
	}
	e.Runs = d.int(`},"runs":`)
	d.lit("}")
	if d.bad || d.i != len(b) {
		return nil, false
	}
	return e, true
}

// decoder is a cursor over a payload with a sticky failure flag: once a
// read fails, bad stays set and every later read returns a zero value
// without consuming input, so decodeEntry checks the flag once, at the
// end, and every loop over more stops.
type decoder struct {
	b   []byte
	i   int
	bad bool
}

// skip consumes s if the input continues with it.
func (d *decoder) skip(s string) bool {
	if d.bad || len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// lit consumes s or fails.
func (d *decoder) lit(s string) {
	if !d.skip(s) {
		d.bad = true
	}
}

// open consumes pre and then either the opening bracket of an array or
// object, reporting true, or null, reporting false.
func (d *decoder) open(pre, bracket string) bool {
	d.lit(pre)
	if d.skip("null") {
		return false
	}
	d.lit(bracket)
	return !d.bad
}

// more reports whether element n of an open array or object follows,
// consuming the comma before every element but the first; at the close
// byte it consumes it and reports false.
func (d *decoder) more(close byte, n int) bool {
	if d.bad {
		return false
	}
	if d.i < len(d.b) && d.b[d.i] == close {
		d.i++
		return false
	}
	if n > 0 {
		d.lit(",")
	}
	return !d.bad
}

// vector reads an input vector: null or an object of integers.
func (d *decoder) vector(pre string) map[string]int64 {
	if !d.open(pre, "{") {
		return nil
	}
	// Size the map from the commas before the next '}' (a hint only:
	// a key may contain either byte).
	size := 1
	if end := bytes.IndexByte(d.b[d.i:], '}'); end > 0 {
		size += bytes.Count(d.b[d.i:d.i+end], []byte{','})
	}
	m := make(map[string]int64, size)
	for n := 0; d.more('}', n); n++ {
		k := d.str("")
		m[k] = d.int64(":")
	}
	return m
}

func (d *decoder) bool(pre string) bool {
	d.lit(pre)
	if d.skip("true") {
		return true
	}
	d.lit("false")
	return false
}

// int reads an integer that fits an int.
func (d *decoder) int(pre string) int {
	v := d.int64(pre)
	if int64(int(v)) != v {
		d.bad = true
	}
	return int(v)
}

// int64 reads -?(0|[1-9][0-9]*) within int64; a fraction or exponent
// is left unconsumed and fails the read that follows.
func (d *decoder) int64(pre string) int64 {
	d.lit(pre)
	if d.bad {
		return 0
	}
	neg := d.skip("-")
	start := d.i
	var v uint64
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		v = v*10 + uint64(d.b[d.i]-'0')
		d.i++
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	// Nineteen digits cannot overflow v; a twentieth always exceeds int64.
	if n := d.i - start; n == 0 || n > 19 || n > 1 && d.b[start] == '0' || v > limit {
		d.bad = true
		return 0
	}
	if neg {
		return int64(-v)
	}
	return int64(v)
}

// str reads a string.  One of ASCII bytes from 0x20 up without a
// backslash is copied out directly; anything else takes the
// escape-decoding path.
func (d *decoder) str(pre string) string {
	d.lit(pre)
	if !d.skip(`"`) {
		d.bad = true
		return ""
	}
	for i := d.i; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			s := string(d.b[d.i:i])
			d.i = i + 1
			return s
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			return d.escaped()
		}
	}
	d.bad = true
	return ""
}

// escaped decodes a string body from the cursor through its closing
// quote.  It accepts every JSON escape (json.Marshal writes \" \\ \b
// \f \n \r \t and \uXXXX, surrogate pairs included) and raw UTF-8,
// and rejects raw control bytes, invalid UTF-8 and lone surrogates,
// which json.Marshal never writes and json.Unmarshal would replace.
func (d *decoder) escaped() string {
	var buf []byte
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			d.i++
			return string(buf)
		case c < 0x20:
			d.bad = true
			return ""
		case c == '\\':
			r := d.escape()
			if r < 0 {
				d.bad = true
				return ""
			}
			buf = utf8.AppendRune(buf, r)
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			d.i++
		default:
			r, n := utf8.DecodeRune(d.b[d.i:])
			if r == utf8.RuneError && n == 1 {
				d.bad = true
				return ""
			}
			buf = append(buf, d.b[d.i:d.i+n]...)
			d.i += n
		}
	}
	d.bad = true
	return ""
}

// escape decodes the escape sequence at the cursor, or returns -1.
func (d *decoder) escape() rune {
	if d.i+1 >= len(d.b) {
		return -1
	}
	c := d.b[d.i+1]
	d.i += 2
	if c != 'u' {
		if k := strings.IndexByte(`"\/bfnrt`, c); k >= 0 {
			return rune("\"\\/\b\f\n\r\t"[k])
		}
		return -1
	}
	r := d.hex4()
	if !utf16.IsSurrogate(r) {
		return r
	}
	// A high surrogate must be followed by an escaped low one.
	if !d.skip(`\u`) {
		return -1
	}
	if r = utf16.DecodeRune(r, d.hex4()); r == utf8.RuneError {
		return -1
	}
	return r
}

// hex4 reads the four hex digits of a \u escape, or returns -1.
func (d *decoder) hex4() rune {
	if len(d.b)-d.i < 4 {
		return -1
	}
	v, err := strconv.ParseUint(string(d.b[d.i:d.i+4]), 16, 16)
	if err != nil {
		return -1
	}
	d.i += 4
	return rune(v)
}
