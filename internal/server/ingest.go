// The /ingest body: read once into a pooled buffer, then decoded by one
// of two parsers that produce the same ingestBatch.
//
// scanIngest recognises the canonical wire shape — what every client in
// this repository (and json.Marshal of IngestRequest) sends:
//
//	{"events":[{"resource":N,"tags":[T,…]},…]}
//	{"resource":N,"tags":[T,…]}
//
// with keys in exactly that order and case, arbitrary JSON whitespace
// between tokens, and N, T plain non-negative decimal integers. It goes
// straight from bytes to []PostEvent: two allocations per request (the
// events and one tag arena every post is a slice of) where the reflective
// decoder pays several per event.
//
// Anything else — other key order or case, escapes, null, duplicate
// keys, signs, fractions, exponents, leading zeros, out-of-range
// numbers, empty tags or events, unknown fields, trailing bytes — makes
// the scanner give up without an opinion, and the same bytes go to
// decodeIngest: encoding/json, the single owner of lenient-JSON
// semantics and of every error text. The scanner accepts only bodies on
// which the two agree event for event (FuzzIngestDecode holds it to
// that), so which parser ran is not observable.
package server

import (
	"bytes"
	"math"
	"net/http"
	"sync"

	incentivetag "incentivetag"
	"incentivetag/internal/tags"
)

// ingestBatch is a decoded /ingest body, ready for the shared tail.
type ingestBatch struct {
	events []incentivetag.PostEvent
	// single marks the resource+tags form: one event, applied through
	// Service.Ingest and reported without the "event k: " prefix.
	single bool
	// bad is the first invalid post (decodeIngest only): events stops
	// before it. It is reported after the ownership checks of the events
	// ahead of it, the order a per-event loop would find them in.
	bad error
}

// bodyPool recycles /ingest read buffers across requests.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody is the largest buffer bodyPool keeps. Bodies may reach
// MaxBodyBytes (8 MiB by default); pooling what one worst-case batch
// grew would pin that much per idle buffer indefinitely.
const maxPooledBody = 1 << 20

// readBody reads the size-capped request body into a pooled buffer. The
// caller returns the buffer with putBody once nothing references its
// bytes.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.maxBody))
	return buf, err
}

func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// minEventBytes is the shortest canonical event, {"resource":0,"tags":[1]}.
const minEventBytes = 25

// scanIngest decodes a canonical /ingest body (see the file header);
// ok=false means "not canonical", never "invalid". Posts are sorted,
// deduplicated slices of one arena. Nothing below Service.IngestMany
// retains a post (the tracker and the index add counts, the WAL frames
// bytes), so the arena dies with the request.
func scanIngest(b []byte) (in ingestBatch, ok bool) {
	// Exact sizes for a canonical body, and no more than a few bytes per
	// body byte for any other: every event opens a brace and takes
	// minEventBytes, every tag follows a comma or opens a list.
	sc := ingestScanner{
		cursor: cursor{b: b},
		events: make([]incentivetag.PostEvent, 0, min(bytes.Count(b, []byte{'{'}), len(b)/minEventBytes)),
		arena:  make([]incentivetag.Tag, 0, min(bytes.Count(b, []byte{','})+1, len(b)/2)),
	}
	if !sc.lit("{") {
		return in, false
	}
	sc.ws()
	if in.single = !bytes.HasPrefix(b[sc.i:], []byte(`"events"`)); in.single {
		if !sc.event() {
			return in, false
		}
	} else {
		sc.i += len(`"events"`)
		if !sc.lit(":") || !sc.lit("[") {
			return in, false
		}
		for more := true; more; {
			if !sc.lit("{") || !sc.event() || !sc.lit("}") {
				return in, false
			}
			if more, ok = sc.sep(']'); !ok {
				return in, false
			}
		}
	}
	in.events = sc.events
	return in, sc.lit("}") && sc.end()
}

// ingestScanner is a cursor over the body plus the output so far.
type ingestScanner struct {
	cursor
	events []incentivetag.PostEvent
	arena  []incentivetag.Tag // every event's post is a slice of this
}

// event consumes the two fields of one event — "resource":N,"tags":[T,…]
// — and appends it, its post carved from the arena's tail.
func (sc *ingestScanner) event() bool {
	if !sc.key(`"resource"`) {
		return false
	}
	resource, ok := sc.uint(math.MaxInt)
	if !ok || !sc.lit(",") || !sc.key(`"tags"`) || !sc.lit("[") {
		return false
	}
	start := len(sc.arena)
	for more := true; more; {
		t, ok := sc.uint(math.MaxInt32)
		if !ok {
			return false // includes the empty list
		}
		sc.arena = append(sc.arena, incentivetag.Tag(t))
		if more, ok = sc.sep(']'); !ok {
			return false
		}
	}
	// At least one tag and none negative: Normalize cannot fail.
	p, _ := tags.Normalize(sc.arena[start:])
	sc.arena = sc.arena[:start+len(p)]
	sc.events = append(sc.events, incentivetag.PostEvent{Resource: int(resource), Post: p[:len(p):len(p)]})
	return true
}

// decodeIngest is the general /ingest decoder: strict encoding/json into
// the wire structs, then post() per event. ok=false means the 400 was
// already written.
func (s *Server) decodeIngest(w http.ResponseWriter, body []byte) (in ingestBatch, ok bool) {
	var req IngestRequest
	if !s.decodeJSON(w, bytes.NewReader(body), &req) {
		return in, false
	}
	in.single = len(req.Tags) > 0
	if in.single == (len(req.Events) > 0) {
		writeError(w, http.StatusBadRequest, "provide either resource+tags or events, not both or neither")
		return in, false
	}
	if in.single {
		req.Events = []IngestEvent{{Resource: req.Resource, Tags: req.Tags}}
	}
	in.events = make([]incentivetag.PostEvent, 0, len(req.Events))
	for _, ev := range req.Events {
		p, err := post(ev.Tags)
		if err != nil {
			in.bad = err
			break
		}
		in.events = append(in.events, incentivetag.PostEvent{Resource: ev.Resource, Post: p})
	}
	return in, true
}
