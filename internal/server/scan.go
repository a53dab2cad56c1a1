// The byte cursor under the canonical-shape scanners: scanIngest
// (ingest.go) and the two cluster RPC scanners (cluster.go). Each
// recognises exactly one wire shape in one pass and gives up — without
// an opinion — on anything else, leaving the same bytes to
// encoding/json.
package server

import "strconv"

// cursor is a position in a JSON text.
type cursor struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (sc *cursor) ws() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// lit consumes optional whitespace, then exactly s.
func (sc *cursor) lit(s string) bool {
	sc.ws()
	if len(sc.b)-sc.i < len(s) || string(sc.b[sc.i:sc.i+len(s)]) != s {
		return false
	}
	sc.i += len(s)
	return true
}

// sep consumes optional whitespace, then a list separator: more=true on
// a comma, more=false on the closing bracket.
func (sc *cursor) sep(close byte) (more, ok bool) {
	sc.ws()
	if sc.i == len(sc.b) {
		return false, false
	}
	c := sc.b[sc.i]
	sc.i++
	return c == ',', c == ',' || c == close
}

// key consumes optional whitespace, a quoted member name (k carries its
// quotes) and the colon after it.
func (sc *cursor) key(k string) bool { return sc.lit(k) && sc.lit(":") }

// uint consumes optional whitespace, then a JSON integer in [0, limit]: no
// sign, no leading zero, no fraction or exponent (whatever follows the
// digits is the caller's next expected token, so "1.0" and "1e3" fail
// there).
func (sc *cursor) uint(limit uint64) (v uint64, ok bool) {
	sc.ws()
	start := sc.i
	for ; sc.i < len(sc.b); sc.i++ {
		d := uint64(sc.b[sc.i] - '0')
		if d > 9 {
			break
		}
		if v > (limit-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	n := sc.i - start
	return v, n == 1 || (n > 1 && sc.b[start] != '0')
}

// digits consumes a run of decimal digits and reports whether there was
// at least one.
func (sc *cursor) digits() bool {
	start := sc.i
	for sc.i < len(sc.b) && sc.b[sc.i]-'0' <= 9 {
		sc.i++
	}
	return sc.i > start
}

// float consumes optional whitespace, then a non-negative JSON number —
// int [frac] [exp], nothing strconv accepts beyond that grammar — and
// converts it with strconv.ParseFloat over exactly its bytes, which is
// what encoding/json does: the value keeps its bits.
func (sc *cursor) float() (float64, bool) {
	sc.ws()
	start := sc.i
	if !sc.digits() || (sc.b[start] == '0' && sc.i-start > 1) {
		return 0, false
	}
	if sc.i < len(sc.b) && sc.b[sc.i] == '.' {
		if sc.i++; !sc.digits() {
			return 0, false
		}
	}
	if sc.i < len(sc.b) && sc.b[sc.i]|0x20 == 'e' {
		if sc.i++; sc.i < len(sc.b) && (sc.b[sc.i] == '+' || sc.b[sc.i] == '-') {
			sc.i++
		}
		if !sc.digits() {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(string(sc.b[start:sc.i]), 64)
	return v, err == nil
}

// end consumes optional whitespace and reports whether the text ends
// there: trailing bytes are not canonical.
func (sc *cursor) end() bool {
	sc.ws()
	return sc.i == len(sc.b)
}
