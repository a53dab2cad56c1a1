package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	incentivetag "incentivetag"
)

// newIngestServer builds a ready WAL-less server over the small test
// corpus. Every resource with id ≡ 3 (mod 5) is owned by "another node",
// so the 421 path is reachable.
func newIngestServer(tb testing.TB, cfg Config) *Server {
	tb.Helper()
	ds, err := incentivetag.Generate(incentivetag.DefaultConfig(60, 11))
	if err != nil {
		tb.Fatal(err)
	}
	svc, err := incentivetag.NewService(ds, incentivetag.ServiceOptions{
		Strategy: "FP-MU",
		Owned:    func(i int) bool { return i%5 != 3 },
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { svc.Close() })
	cfg.Service = svc
	srv, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// ingestVia posts body to /ingest through the full handler chain.
func ingestVia(srv *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", bytes.NewReader(body)))
	return rec
}

// ingestGeneral is the reference route: the general decoder and the
// shared tail, the canonical scanner never consulted.
func ingestGeneral(srv *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	if in, ok := srv.decodeIngest(rec, body); ok {
		srv.applyIngest(rec, srv.svc.Load(), in)
	}
	return rec
}

// ingestSeeds is the decoder corpus: both canonical forms, bare and with
// whitespace everywhere JSON allows it, then every way of being
// valid-but-not-canonical or invalid that the scanner must leave to
// encoding/json (rest also holds a few canonical bodies whose fault —
// ownership, range — is the tail's to find).
func ingestSeeds() (canonical, rest [][]byte) {
	const batch = `{"events":[{"resource":1,"tags":[5,3,5]},{"resource":2,"tags":[7]},{"resource":1,"tags":[0,2147483647]}]}`
	for _, s := range []string{
		batch,
		`{"resource":4,"tags":[9,1,9,1]}`,
		" {\n\t\"events\" : [ { \"resource\" : 1 , \"tags\" : [ 5 ,\r\n 3 ] } , {\"resource\":0,\"tags\":[1]} ] } \n",
		" { \"resource\" :\t6 , \"tags\" : [ 2 ] }\n",
	} {
		canonical = append(canonical, []byte(s))
	}
	seeds := []string{
		`{"tags":[1],"resource":4}`,                                      // reordered keys
		`{"events":[{"tags":[1],"resource":4}]}`,                         // reordered keys in an event
		`{"Resource":4,"TAGS":[1]}`,                                      // case-folded keys
		`{"EVENTS":[{"resource":4,"tags":[1]}]}`,                         //
		`{"resource":4,"resource":6,"tags":[1]}`,                         // duplicate keys
		`{"resource":4,"tags":[1],"tags":[2]}`,                           //
		`{"events":[{"resource":4,"tags":[1]}],"events":[]}`,             //
		`{"resource":null,"tags":[1]}`,                                   // null
		`{"resource":4,"tags":null}`,                                     //
		`{"events":null}`,                                                //
		`{"events":[null]}`,                                              //
		`{"resource":-1,"tags":[1]}`,                                     // negatives
		`{"resource":4,"tags":[-1]}`,                                     //
		`{"resource":4,"tags":[3,-4,-9]}`,                                //
		`{"resource":-0,"tags":[1]}`,                                     //
		`{"resource":1e3,"tags":[1]}`,                                    // exponents, fractions
		`{"resource":4,"tags":[1e3]}`,                                    //
		`{"resource":4.0,"tags":[1]}`,                                    //
		`{"resource":4,"tags":[1.0]}`,                                    //
		`{"resource":04,"tags":[1]}`,                                     // leading zeros
		`{"resource":4,"tags":[01]}`,                                     //
		`{"resource":4,"tags":[2147483648]}`,                             // 2^31 tag
		`{"resource":4,"tags":[9223372036854775808]}`,                    // 2^63 tag
		`{"resource":9223372036854775807,"tags":[1]}`,                    // MaxInt64 resource
		`{"resource":9223372036854775808,"tags":[1]}`,                    // 2^63 resource
		`{"resource":99999999999999999999999,"tags":[1]}`,                //
		`{"resource":4,"tags":[]}`,                                       // empty tags
		`{"events":[{"resource":4,"tags":[]}]}`,                          //
		`{"events":[{"resource":1,"tags":[1]},{"resource":4}]}`,          //
		`{"events":[]}`,                                                  // empty events
		`{}`,                                                             // neither form
		`{"resource":4,"tags":[1],"bogus":1}`,                            // unknown fields
		`{"events":[{"resource":4,"tags":[1],"bogus":1}]}`,               //
		`{"resource":4,"tags":[1],"events":[{"resource":1,"tags":[2]}]}`, // both forms at once
		`{"events":[{"resource":1,"tags":[2]}],"resource":4,"tags":[1]}`, //
		`{"resource":4,"tags":[1]}garbage`,                               // trailing bytes
		`{"resource":4,"tags":[1]}{"resource":6,"tags":[1]}`,             //
		`{"events":[{"resource":1,"tags":[2]}]} ]`,                       //
		`{"resource":"4","tags":[1]}`,                                    // strings, escapes
		`{"resource":4,"tags":["1"]}`,                                    //
		`{"r\u0065source":4,"tags":[1]}`,                                 //
		`{"resource":4,"tags":[1,]}`,                                     // stray separators
		`{"resource":4,"tags":[,1]}`,                                     //
		`{"events":[{"resource":4,"tags":[1]},]}`,                        //
		`{"resource":4,,"tags":[1]}`,                                     //
		`{"resource":3,"tags":[1]}`,                                      // not owned: 421
		`{"events":[{"resource":1,"tags":[2]},{"resource":3,"tags":[1]},{"resource":4,"tags":[-1]}]}`, // 421 before a later 400
		`{"events":[{"resource":1,"tags":[-2]},{"resource":3,"tags":[1]}]}`,                           // 400 before a later 421
		`{"resource":100000,"tags":[1]}`,                                                              // outside the corpus
		`{"events":[{"resource":1,"tags":[2]},{"resource":100000,"tags":[1]}]}`,                       //
		`[{"resource":4,"tags":[1]}]`,                                                                 // wrong top-level types
		`null`, `4`, `"x"`, ``, ` `, "\ufeff" + batch, "{nope",
	}
	for _, s := range seeds {
		rest = append(rest, []byte(s))
	}
	for i := range batch { // truncation at every byte
		rest = append(rest, []byte(batch[:i]))
	}
	return canonical, rest
}

// The decoder's differential property: for every body the handler — the
// canonical scanner with the general decoder behind it — answers with the
// status and bytes the general decoder alone answers with, and leaves the
// service in the same state; and whenever the scanner accepts a body,
// strict encoding/json accepts it too and yields the same events.
func FuzzIngestDecode(f *testing.F) {
	canonical, rest := ingestSeeds()
	for _, s := range append(canonical, rest...) {
		f.Add(s)
	}
	// Both services absorb the same stream, so they stay comparable from
	// one input to the next.
	srv, ref := newIngestServer(f, Config{}), newIngestServer(f, Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		if in, ok := scanIngest(body); ok {
			want, wok := ref.decodeIngest(httptest.NewRecorder(), body)
			if !wok || want.bad != nil {
				t.Fatalf("scanner accepted %q, encoding/json route refused it", body)
			}
			if in.single != want.single || !reflect.DeepEqual(in.events, want.events) {
				t.Fatalf("%q: scanner decoded %+v, encoding/json route %+v", body, in, want)
			}
		}
		got, want := ingestVia(srv, body), ingestGeneral(ref, body)
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Fatalf("%q: handler answered %d %q, general route %d %q",
				body, got.Code, got.Body.String(), want.Code, want.Body.String())
		}
		if g, w := srv.svc.Load().Snapshot(), ref.svc.Load().Snapshot(); g != w {
			t.Fatalf("%q: service state diverged: %+v vs %+v", body, g, w)
		}
	})
}

// The corpus must actually exercise the scanner: the canonical seeds are
// accepted (so the property above is not vacuous) and nothing else is.
func TestScanIngestAcceptsOnlyCanonical(t *testing.T) {
	canonical, rest := ingestSeeds()
	for i, s := range canonical {
		in, ok := scanIngest(s)
		if !ok {
			t.Fatalf("canonical seed %d rejected: %q", i, s)
		}
		for _, ev := range in.events {
			for k, tg := range ev.Post {
				if k > 0 && tg <= ev.Post[k-1] {
					t.Fatalf("seed %d: post %v not sorted and distinct", i, ev.Post)
				}
			}
			if cap(ev.Post) != len(ev.Post) {
				t.Fatalf("seed %d: post %v can grow into its arena neighbour", i, ev.Post)
			}
		}
	}
	// 421 and out-of-corpus seeds are canonical too: ownership and range
	// are the tail's business, not the decoder's.
	canonicalLater := map[string]bool{
		`{"resource":3,"tags":[1]}`:                                             true,
		`{"resource":100000,"tags":[1]}`:                                        true,
		`{"events":[{"resource":1,"tags":[2]},{"resource":100000,"tags":[1]}]}`: true,
	}
	if strconv.IntSize == 64 { // MaxInt64 is a representable resource
		canonicalLater[`{"resource":9223372036854775807,"tags":[1]}`] = true
	}
	for _, s := range rest {
		if _, ok := scanIngest(s); ok != canonicalLater[string(s)] {
			t.Fatalf("scanIngest(%q) accepted=%v, want %v", s, ok, canonicalLater[string(s)])
		}
	}
}

// The read-ahead keeps the body cap exact on both decoders: a body of
// exactly MaxBodyBytes is served, one byte more is a 413 that names the
// limit and bumps the counter.
func TestIngestBodyCapBoundary(t *testing.T) {
	const limit = 512
	pad := func(head, tail string, n int) []byte {
		return []byte(head + strings.Repeat(" ", n-len(head)-len(tail)) + tail)
	}
	for _, tc := range []struct {
		name       string
		head, tail string
	}{
		{"canonical", `{"resource":4,"tags":[1`, `]}`},
		{"general", `{"tags":[1],"resource":4`, `}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newIngestServer(t, Config{MaxBodyBytes: limit})
			if _, ok := scanIngest(pad(tc.head, tc.tail, limit)); ok != (tc.name == "canonical") {
				t.Fatalf("body takes the wrong decoder (scanner accepted=%v)", ok)
			}
			if rec := ingestVia(srv, pad(tc.head, tc.tail, limit)); rec.Code != http.StatusOK {
				t.Fatalf("%d-byte body: %d %s", limit, rec.Code, rec.Body)
			}
			if n := srv.edge.bodyTooLarge.Load(); n != 0 {
				t.Fatalf("body-too-large counter = %d after an exact-size body", n)
			}
			rec := ingestVia(srv, pad(tc.head, tc.tail, limit+1))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%d-byte body: %d %s", limit+1, rec.Code, rec.Body)
			}
			want := fmt.Sprintf("request body exceeds %d bytes; split the batch", limit)
			var e ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != want {
				t.Fatalf("413 body %q (%v), want error %q", rec.Body, err, want)
			}
			if n := srv.edge.bodyTooLarge.Load(); n != 1 {
				t.Fatalf("body-too-large counter = %d, want 1", n)
			}
			if got := srv.svc.Load().Snapshot().Posts; got != 1 {
				t.Fatalf("%d posts ingested, want exactly the one in-limit post", got)
			}
		})
	}
}

// A buffer that grew for a worst-case body must not go back to the pool.
func TestBodyPoolDropsLargeBuffers(t *testing.T) {
	large := new(bytes.Buffer)
	large.Grow(2 * maxPooledBody)
	putBody(large)
	for i := 0; i < 64; i++ {
		if bodyPool.Get() == any(large) {
			t.Fatalf("a %d-byte buffer was pooled (cap is %d)", large.Cap(), maxPooledBody)
		}
	}
}

// replayBody is a request body that can be rewound between runs.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps only the status.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// The allocation gate: a canonical 256-event batch costs a handful of
// allocations end to end (body cap reader, events, tag arena, response)
// — not several per event, which is what it costs the moment the decode
// falls back to encoding/json or the posts stop sharing one arena.
func TestIngestAllocationGate(t *testing.T) {
	srv := newIngestServer(t, Config{})
	var req IngestRequest
	for k := 0; k < 256; k++ {
		req.Events = append(req.Events, IngestEvent{Resource: (k * 7) % 60 / 5 * 5, Tags: []int32{int32(k % 40), int32(k%13 + 50), 7}})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := scanIngest(body); !ok {
		t.Fatal("json.Marshal(IngestRequest) is not canonical")
	}
	h := srv.Handler()
	r := httptest.NewRequest("POST", "/ingest", nil)
	rb := &replayBody{}
	r.Body = rb
	w := &discardWriter{h: http.Header{}}
	allocs := testing.AllocsPerRun(50, func() {
		rb.Reset(body)
		w.status = 0
		h.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	})
	if allocs > 16 {
		t.Fatalf("%.0f allocations per 256-event request, want ≤ 16", allocs)
	}
	t.Logf("%.1f allocations per 256-event request", allocs)
}
