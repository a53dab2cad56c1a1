package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

const fuzzMapHash = "feed0123feed0123"

// clusterVia sends one request through the full handler chain.
func clusterVia(srv *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// clusterTopKGeneral is the reference route for POST /cluster/topk:
// strict encoding/json and the shared tail, the scanner never consulted.
func clusterTopKGeneral(srv *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	var req ClusterTopKRequest
	if srv.edge.decodeJSON(rec, bytes.NewReader(body), &req) {
		srv.rankClusterTopK(rec, srv.svc.Load(), &req)
	}
	return rec
}

// ownerLegs are real owner-leg answers of the test corpus: hot subjects,
// small and large k.
func ownerLegs(tb testing.TB, srv *Server) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, path := range []string{"/cluster/topk?resource=0&k=3", "/cluster/topk?resource=7&k=10", "/cluster/topk?resource=41&k=60"} {
		rec := clusterVia(srv, "GET", path+"&maphash="+fuzzMapHash, nil)
		if rec.Code != http.StatusOK {
			tb.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
		out = append(out, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return out
}

// nonCanonical is every way of being valid-but-not-canonical or invalid
// that a scanner must leave to encoding/json, written as edits of one
// canonical value: each pair replaces old with new once.
func nonCanonical(canon string, edits [][2]string) [][]byte {
	var out [][]byte
	for _, e := range edits {
		if !strings.Contains(canon, e[0]) {
			panic(fmt.Sprintf("seed edit %q does not apply to %s", e[0], canon))
		}
		out = append(out, []byte(strings.Replace(canon, e[0], e[1], 1)))
	}
	for _, s := range []string{`null`, `4`, `"x"`, `[]`, `{}`, ``, ` `, "\ufeff" + canon, "{nope", canon + "garbage", canon + canon, canon + " ]"} {
		out = append(out, []byte(s))
	}
	for i := range canon { // truncation at every byte
		out = append(out, []byte(canon[:i]))
	}
	return out
}

const canonTopK = `{"maphash":"` + fuzzMapHash + `","exclude":7,"qnorm2":30,"k":5,"entries":[{"t":1,"c":2},{"t":4,"c":1},{"t":9,"c":5}]}`

// clusterTopKSeeds is the POST /cluster/topk decoder corpus: the query
// members of real owner legs and whitespace everywhere JSON allows it,
// then the non-canonical list.
func clusterTopKSeeds(tb testing.TB, srv *Server) (canonical, rest [][]byte) {
	for _, leg := range ownerLegs(tb, srv) {
		var l ClusterLeg
		if err := json.Unmarshal(leg, &l); err != nil {
			tb.Fatal(err)
		}
		canonical = append(canonical, l.Query)
	}
	canonical = append(canonical, []byte(canonTopK),
		[]byte(" {\n\"maphash\" : \"\" ,\t\"exclude\" : 0 , \"qnorm2\" : 9007199254740992 , \"k\" : 1 ,\r\n \"entries\" : [ { \"t\" : 2147483647 , \"c\" : 9223372036854775807 } ] } \n"))
	rest = nonCanonical(canonTopK, [][2]string{
		{`"entries":[{"t":1,"c":2},{"t":4,"c":1},{"t":9,"c":5}]`, `"entries":[]`},   // empty entries
		{`"entries":[{"t":1,"c":2},{"t":4,"c":1},{"t":9,"c":5}]`, `"entries":null`}, // null
		{`{"t":4,"c":1}`, `null`},                                      //
		{`"k":5`, `"k":null`},                                          //
		{`"` + fuzzMapHash + `"`, `null`},                              //
		{`"exclude":7,"qnorm2":30`, `"qnorm2":30,"exclude":7`},         // other key order
		{`{"t":4,"c":1}`, `{"c":1,"t":4}`},                             //
		{`"maphash":"` + fuzzMapHash + `",`, ``},                       // missing members
		{`,"entries":[{"t":1,"c":2},{"t":4,"c":1},{"t":9,"c":5}]`, ``}, //
		{`"k":5`, `"k":5,"k":6`},                                       // duplicate keys
		{`"k":5`, `"K":5`},                                             // case-folded keys
		{`feed`, `\u0066eed`},                                          // escapes, non-ASCII, control bytes
		{`feed`, `fe\"ed`},                                             //
		{`feed`, `fééd`},                                               //
		{`feed`, "fe\xffed"},                                           //
		{`feed`, "fe\x01ed"},                                           //
		{`"exclude":7`, `"exclude":-7`},                                // signs
		{`"c":2`, `"c":-2`},                                            //
		{`"qnorm2":30`, `"qnorm2":-0`},                                 //
		{`"k":5`, `"k":+5`},                                            //
		{`"qnorm2":30`, `"qnorm2":30.0`},                               // fractions, exponents
		{`"qnorm2":30`, `"qnorm2":30.5`},                               //
		{`"qnorm2":30`, `"qnorm2":3e1`},                                //
		{`"k":5`, `"k":5.0`},                                           //
		{`"t":4`, `"t":4e0`},                                           //
		{`"k":5`, `"k":05`},                                            // leading zeros
		{`"qnorm2":30`, `"qnorm2":9007199254740993`},                   // past 2^53, 2^31, 2^63
		{`"qnorm2":30`, `"qnorm2":1e400`},                              //
		{`"t":4`, `"t":2147483648`},                                    //
		{`"c":1`, `"c":9223372036854775808`},                           //
		{`"exclude":7`, `"exclude":99999999999999999999999`},           //
		{`"k":5`, `"k":5,"bogus":1`},                                   // unknown fields
		{`{"t":4,"c":1}`, `{"t":4,"c":1,"x":0}`},                       //
		{`"k":5`, `"k":"5"`},                                           // wrong types
		{`"entries":[`, `"entries":[[`},                                //
		{`{"t":4,"c":1},`, `{"t":4,"c":1},,`},                          // stray separators
		{`{"t":9,"c":5}]`, `{"t":9,"c":5},]`},                          //
		{`"maphash":"` + fuzzMapHash + `"`, `"maphash":"beef"`},        // canonical, 409
		{`"k":5`, `"k":0`},                                             // canonical, 400
		{`"c":2`, `"c":0`},                                             //
	})
	return canonical, rest
}

// canonicalLater are the three seeds above that are canonical: their
// fault (409, 400) is the tail's to find, not the decoder's.
var canonicalLater = map[string]bool{
	strings.Replace(canonTopK, fuzzMapHash, "beef", 1): true,
	strings.Replace(canonTopK, `"k":5`, `"k":0`, 1):    true,
	strings.Replace(canonTopK, `"c":2`, `"c":0`, 1):    true,
}

// The node decoder's differential property: for every body the handler —
// the canonical scanner with strict encoding/json behind it — answers
// with the status and bytes encoding/json alone answers with; and
// whenever the scanner accepts a body, strict encoding/json accepts it
// too and yields the same request.
func FuzzClusterTopKDecode(f *testing.F) {
	srv := newIngestServer(f, Config{ShardMapHash: fuzzMapHash})
	canonical, rest := clusterTopKSeeds(f, srv)
	for _, s := range append(canonical, rest...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if got, ok := scanClusterTopK(body); ok {
			var want ClusterTopKRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&want); err != nil {
				t.Fatalf("scanner accepted %q, encoding/json refused it: %v", body, err)
			}
			if !reflect.DeepEqual(got, want) || math.Float64bits(got.QNorm2) != math.Float64bits(want.QNorm2) {
				t.Fatalf("%q: scanner decoded %+v, encoding/json %+v", body, got, want)
			}
		}
		got, want := clusterVia(srv, "POST", "/cluster/topk", body), clusterTopKGeneral(srv, body)
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Fatalf("%q: handler answered %d %q, general route %d %q",
				body, got.Code, got.Body.String(), want.Code, want.Body.String())
		}
	})
}

const canonLeg = `{"epoch":42,"top":[{"resource":3,"score":0.7071067811865475},{"resource":10,"score":1},{"resource":0,"score":0},{"resource":8,"score":1e-7}],"query":` + canonTopK + `}`

// topkLegSeeds is the gateway-side decoder corpus: real owner legs, a
// query leg, a search leg, whitespace, then the non-canonical list (the
// query member's own list rides along inside a leg).
func topkLegSeeds(tb testing.TB, srv *Server) (canonical, rest [][]byte) {
	canonical = ownerLegs(tb, srv)
	for _, l := range canonical[:1] {
		var leg ClusterLeg
		if err := json.Unmarshal(l, &leg); err != nil {
			tb.Fatal(err)
		}
		rec := clusterVia(srv, "POST", "/cluster/topk", leg.Query)
		canonical = append(canonical, bytes.TrimSpace(rec.Body.Bytes()))
	}
	rec := clusterVia(srv, "GET", "/cluster/search?tags=1,2,3&k=5&maphash="+fuzzMapHash, nil)
	if rec.Code != http.StatusOK {
		tb.Fatalf("search leg: %d %s", rec.Code, rec.Body)
	}
	canonical = append(canonical, bytes.TrimSpace(rec.Body.Bytes()), []byte(canonLeg),
		[]byte(`{"epoch":0,"top":[]}`),
		[]byte(`{"tags":[5],"epoch":18446744073709551615,"top":[],"query":`+canonTopK+`}`),
		[]byte(" {\n\"tags\" : [ 1 ,\t2 ] , \"epoch\" : 7 , \"top\" : [ { \"resource\" : 1 , \"score\" : 2.5E+3 } ] ,\r\n \"query\" :  "+canonTopK+"  } \n"))
	rest = nonCanonical(canonLeg, [][2]string{
		{`"top":[{"resource":3,"score":0.7071067811865475},{"resource":10,"score":1},{"resource":0,"score":0},{"resource":8,"score":1e-7}]`, `"top":null`}, // null
		{`"epoch":42`, `"epoch":null`},                                            //
		{`{"resource":10,"score":1}`, `null`},                                     //
		{`"query":` + canonTopK, `"query":null`},                                  //
		{`{"epoch":42,`, `{"tags":null,"epoch":42,`},                              //
		{`{"epoch":42,`, `{"tags":[],"epoch":42,`},                                // empty tags
		{`{"epoch":42,`, `{"epoch":42,"tags":[1],`},                               // other key order
		{`{"resource":10,"score":1}`, `{"score":1,"resource":10}`},                //
		{`"epoch":42,`, ``},                                                       // missing members
		{`"epoch":42`, `"epoch":42,"epoch":43`},                                   // duplicate keys
		{`"epoch":42`, `"Epoch":42`},                                              // case-folded keys
		{`"top"`, `"\u0074op"`},                                                   // escapes
		{`"epoch":42`, `"epoch":-42`},                                             // signs
		{`"resource":3`, `"resource":-3`},                                         //
		{`"score":1}`, `"score":-1}`},                                             //
		{`"score":1}`, `"score":+1}`},                                             //
		{`"epoch":42`, `"epoch":42.0`},                                            // fractions, exponents where an integer belongs
		{`"resource":3`, `"resource":3e0`},                                        //
		{`"score":1}`, `"score":01}`},                                             // numbers encoding/json refuses
		{`"score":1}`, `"score":1.}`},                                             //
		{`"score":1}`, `"score":.5}`},                                             //
		{`"score":1}`, `"score":1e}`},                                             //
		{`"score":1}`, `"score":1e400}`},                                          //
		{`"score":1}`, `"score":0x1p-2}`},                                         //
		{`"score":1}`, `"score":1_0}`},                                            //
		{`"score":1}`, `"score":Inf}`},                                            //
		{`"score":1}`, `"score":NaN}`},                                            //
		{`"score":1}`, `"score":"1"}`},                                            //
		{`"epoch":42`, `"epoch":18446744073709551616`},                            // 2^64
		{`"resource":3`, `"resource":99999999999999999999999`},                    //
		{`"epoch":42`, `"epoch":42,"bogus":1`},                                    // unknown fields
		{`{"resource":10,"score":1}`, `{"resource":10,"score":1,"x":0}`},          //
		{`{"resource":10,"score":1},`, `{"resource":10,"score":1},,`},             // stray separators
		{`"score":1e-7}]`, `"score":1e-7},]`},                                     //
		{`"exclude":7,"qnorm2":30`, `"qnorm2":30,"exclude":7`},                    // a non-canonical query member
		{`"entries":[{"t":1,"c":2},{"t":4,"c":1},{"t":9,"c":5}]`, `"entries":[]`}, //
		{`"k":5`, `"k":5.0`},                                                      //
		{`"k":5`, `"k":5,"bogus":1`},                                              //
	})
	return canonical, rest
}

// sameLeg compares two decoded legs value for value: scores by their
// bits, the query span byte for byte.
func sameLeg(a, b *ClusterLeg) bool {
	if !reflect.DeepEqual(a.Tags, b.Tags) || a.Epoch != b.Epoch || (a.Top == nil) != (b.Top == nil) || len(a.Top) != len(b.Top) ||
		(a.Query == nil) != (b.Query == nil) || !bytes.Equal(a.Query, b.Query) {
		return false
	}
	for i := range a.Top {
		if a.Top[i].Resource != b.Top[i].Resource || math.Float64bits(a.Top[i].Score) != math.Float64bits(b.Top[i].Score) {
			return false
		}
	}
	return true
}

// The gateway decoder's differential property: whenever the scanner
// accepts an answer, strict encoding/json accepts it too with the same
// values — scores to the bit — and the query span is the json.RawMessage
// the general decoder captures; and for every answer DecodeClusterLeg
// returns what encoding/json alone returns, error or value.
func FuzzTopKLegDecode(f *testing.F) {
	canonical, rest := topkLegSeeds(f, newIngestServer(f, Config{ShardMapHash: fuzzMapHash}))
	for _, s := range append(canonical, rest...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want ClusterLeg
		if got, ok := scanClusterLeg(body); ok {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&want); err != nil {
				t.Fatalf("scanner accepted %q, encoding/json refused it: %v", body, err)
			}
			if !sameLeg(&got, &want) {
				t.Fatalf("%q: scanner decoded %+v, encoding/json %+v", body, got, want)
			}
		}
		got, want := ClusterLeg{Tags: []int32{99}, Query: []byte("stale")}, ClusterLeg{}
		gerr, werr := DecodeClusterLeg(body, &got), json.Unmarshal(body, &want)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("%q: DecodeClusterLeg error %v, encoding/json %v", body, gerr, werr)
		}
		if gerr == nil && !sameLeg(&got, &want) {
			t.Fatalf("%q: DecodeClusterLeg gave %+v, encoding/json %+v", body, got, want)
		}
	})
}

// The corpora must actually exercise the scanners: the canonical seeds
// are accepted (so the properties above are not vacuous), the query span
// of a real owner leg is itself a canonical request, and nothing else is
// accepted.
func TestClusterScannersAcceptOnlyCanonical(t *testing.T) {
	srv := newIngestServer(t, Config{ShardMapHash: fuzzMapHash})
	canonical, rest := clusterTopKSeeds(t, srv)
	for i, s := range canonical {
		if _, ok := scanClusterTopK(s); !ok {
			t.Fatalf("canonical request seed %d rejected: %q", i, s)
		}
	}
	for _, s := range rest {
		if _, ok := scanClusterTopK(s); ok != canonicalLater[string(s)] {
			t.Fatalf("scanClusterTopK(%q) accepted=%v, want %v", s, ok, canonicalLater[string(s)])
		}
	}
	canonical, rest = topkLegSeeds(t, srv)
	for i, s := range canonical {
		leg, ok := scanClusterLeg(s)
		if !ok {
			t.Fatalf("canonical leg seed %d rejected: %q", i, s)
		}
		if leg.Query != nil {
			if _, ok := scanClusterTopK(leg.Query); !ok {
				t.Fatalf("leg seed %d: query span %q is not a canonical request", i, leg.Query)
			}
			if cap(leg.Query) != len(leg.Query) {
				t.Fatalf("leg seed %d: query span can grow into the bytes after it", i)
			}
		}
	}
	for _, s := range rest {
		if _, ok := scanClusterLeg(s); ok {
			t.Fatalf("scanClusterLeg accepted %q", s)
		}
	}
}

// The body cap is exact on both POST /cluster/topk decoders, and an
// oversized body is a 413 whatever is wrong inside it: a body of exactly
// MaxBodyBytes is served, one byte more names the limit and bumps the
// counter.
func TestClusterBodyCapBoundary(t *testing.T) {
	const limit = 512
	pad := func(head, tail string, n int) []byte {
		return []byte(head + strings.Repeat(" ", n-len(head)-len(tail)) + tail)
	}
	for _, tc := range []struct {
		name       string
		head, tail string
	}{
		{"canonical", `{"maphash":"` + fuzzMapHash + `","exclude":7,"qnorm2":4,"k":5,"entries":[{"t":1,"c":2}`, `]}`},
		{"general", `{"k":5,"maphash":"` + fuzzMapHash + `","exclude":7,"qnorm2":4,"entries":[{"t":1,"c":2}`, `]}`},
		{"malformed", `{"k":5,,`, `}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newIngestServer(t, Config{MaxBodyBytes: limit, ShardMapHash: fuzzMapHash})
			if _, ok := scanClusterTopK(pad(tc.head, tc.tail, limit)); ok != (tc.name == "canonical") {
				t.Fatalf("body takes the wrong decoder (scanner accepted=%v)", ok)
			}
			want := http.StatusOK
			if tc.name == "malformed" {
				want = http.StatusBadRequest
			}
			if rec := clusterVia(srv, "POST", "/cluster/topk", pad(tc.head, tc.tail, limit)); rec.Code != want {
				t.Fatalf("%d-byte body: %d %s", limit, rec.Code, rec.Body)
			}
			if n := srv.edge.bodyTooLarge.Load(); n != 0 {
				t.Fatalf("body-too-large counter = %d after an exact-size body", n)
			}
			rec := clusterVia(srv, "POST", "/cluster/topk", pad(tc.head, tc.tail, limit+1))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%d-byte body: %d %s", limit+1, rec.Code, rec.Body)
			}
			wantMsg := fmt.Sprintf("request body exceeds %d bytes; split the batch", limit)
			var e ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != wantMsg {
				t.Fatalf("413 body %q (%v), want error %q", rec.Body, err, wantMsg)
			}
			if n := srv.edge.bodyTooLarge.Load(); n != 1 {
				t.Fatalf("body-too-large counter = %d, want 1", n)
			}
		})
	}
}
