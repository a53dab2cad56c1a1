// Cluster node endpoints: the server-side half of the taggate
// scatter-gather protocol.
//
//	GET  /cluster/topk?resource=i&k=&maphash=H  owner's leg: owned-only top-k + the query for the other nodes
//	POST /cluster/topk                          owned-only top-k against that query
//	GET  /cluster/search?tags=a,b&k=&maphash=H  owned-only search
//
// A gateway /topk is one leg per node. The subject's owner goes first:
// from ONE read view of the index it answers its own partial ranking
// and, as the last member, the complete request the other nodes expect —
//
//	{"epoch":N,"top":[{"resource":N,"score":F},…],"query":{"maphash":"H","exclude":N,"qnorm2":N,"k":N,"entries":[{"t":N,"c":N},…]}}
//
// — and the gateway POSTs the bytes of "query" verbatim to every other
// node, which answers {"epoch":N,"top":[…]}. Neither the owner nor the
// gateway ever decodes or re-encodes the subject vector.
//
// The two hot decodes — the POST body on a node, a leg's answer on the
// gateway — each have a one-pass scanner for exactly the bytes
// json.Marshal emits for these structs (that key order, plain-string
// map hash, non-negative decimal integers, at least one entry, scores
// through strconv.ParseFloat). Anything else — empty entries, null,
// other key order, escapes, signs, fractions or exponents where an
// integer belongs, unknown fields, trailing bytes — makes the scanner
// give up without an opinion and the SAME bytes go to encoding/json,
// which stays the single owner of lenient-JSON semantics and of every
// error text (FuzzClusterTopKDecode and FuzzTopKLegDecode hold the
// scanners to value-for-value agreement), so which decoder ran is not
// observable.
//
// Every cluster request carries the gateway's shard-map hash and the
// node refuses (409) when it differs from its own: a gateway and a node
// booted from divergent shard maps would compute different ownership
// and silently return wrong partial rankings — the hash check turns
// that misconfiguration into a loud, immediate error. A node without
// cluster configuration only matches an empty hash: it serves the
// cluster surface as a single-node cluster, and any request carrying a
// real map hash is refused.
package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"

	incentivetag "incentivetag"
)

// WeightedEntry is one (tag, count) pair of a wire query vector. Counts
// are exact integers; they and the accompanying norms are ≤ 2^53 in any
// realistic corpus, so they round-trip JSON float64 encoding exactly —
// which is what keeps distributed scores bit-identical.
type WeightedEntry struct {
	Tag   int32 `json:"t"`
	Count int64 `json:"c"`
}

// ClusterTopKRequest asks this node to rank its owned resources against
// an explicit weighted query vector. Exclude is the subject's id (no
// node but the subject's owner holds it, and the owner has already
// answered, so on the nodes that receive this the exclusion is a
// no-op). MapHash is the gateway's shard-map hash, checked against the
// node's own.
type ClusterTopKRequest struct {
	MapHash string          `json:"maphash"`
	Exclude int             `json:"exclude"`
	QNorm2  float64         `json:"qnorm2"`
	K       int             `json:"k"`
	Entries []WeightedEntry `json:"entries"`
}

// ClusterTopKResponse is this node's partial ranking: up to k owned
// resources under the (score desc, id asc) total order, zero-padded
// node-locally so the gateway's merge reproduces single-node padding.
// Query is set by the subject's owner only (GET): the request for every
// other node, read under the same view the ranking was computed in.
type ClusterTopKResponse struct {
	Epoch uint64              `json:"epoch"`
	Top   []TopKEntry         `json:"top"`
	Query *ClusterTopKRequest `json:"query,omitempty"`
}

// ClusterLeg is a scatter leg's answer as the gateway reads it: a
// ClusterTopKResponse with Query left as the bytes to forward, or a
// /cluster/search SearchResponse.
type ClusterLeg struct {
	Tags  []int32         `json:"tags"`
	Epoch uint64          `json:"epoch"`
	Top   []TopKEntry     `json:"top"`
	Query json.RawMessage `json:"query"`
}

// DecodeClusterLeg decodes a leg's answer. Query aliases b when the
// answer is canonical and is a copy otherwise; callers treat it as
// living no longer than b.
func DecodeClusterLeg(b []byte, leg *ClusterLeg) error {
	var ok bool
	if *leg, ok = scanClusterLeg(b); ok {
		return nil
	}
	*leg = ClusterLeg{}
	return json.Unmarshal(b, leg)
}

// scanClusterLeg decodes a canonical leg answer (see the file header),
// optionally led by "tags" and trailed by "query"; ok=false means "not
// canonical", never "invalid".
func scanClusterLeg(b []byte) (leg ClusterLeg, ok bool) {
	sc := cursor{b: b}
	if !sc.lit("{") {
		return leg, false
	}
	if sc.lit(`"tags"`) {
		if !sc.lit(":") || !sc.lit("[") {
			return leg, false
		}
		for more := true; more; {
			t, ok := sc.uint(math.MaxInt32)
			if !ok {
				return leg, false // includes the empty list
			}
			leg.Tags = append(leg.Tags, int32(t))
			if more, ok = sc.sep(']'); !ok {
				return leg, false
			}
		}
		if !sc.lit(",") {
			return leg, false
		}
	}
	if !sc.key(`"epoch"`) {
		return leg, false
	}
	epoch, ok := sc.uint(math.MaxUint64)
	if !ok || !sc.lit(",") || !sc.key(`"top"`) || !sc.lit("[") {
		return leg, false
	}
	leg.Epoch = epoch
	leg.Top = make([]TopKEntry, 0, 16)
	for more := !sc.lit("]"); more; {
		if !sc.lit("{") || !sc.key(`"resource"`) {
			return leg, false
		}
		resource, ok := sc.uint(math.MaxInt)
		if !ok || !sc.lit(",") || !sc.key(`"score"`) {
			return leg, false
		}
		score, ok := sc.float()
		if !ok || !sc.lit("}") {
			return leg, false
		}
		leg.Top = append(leg.Top, TopKEntry{Resource: int(resource), Score: score})
		if more, ok = sc.sep(']'); !ok {
			return leg, false
		}
	}
	if sc.lit(",") {
		if !sc.key(`"query"`) {
			return leg, false
		}
		sc.ws()
		start := sc.i
		if !sc.topkRequest(nil) {
			return leg, false
		}
		leg.Query = b[start:sc.i:sc.i]
	}
	return leg, sc.lit("}") && sc.end()
}

// minEntryBytes is the shortest canonical query entry, {"t":0,"c":1}.
const minEntryBytes = 13

// scanClusterTopK decodes a canonical POST /cluster/topk body (see the
// file header); ok=false means "not canonical", never "invalid".
func scanClusterTopK(b []byte) (req ClusterTopKRequest, ok bool) {
	sc := cursor{b: b}
	req.Entries = make([]WeightedEntry, 0, min(bytes.Count(b, []byte{'{'}), len(b)/minEntryBytes))
	if !sc.topkRequest(&req) || !sc.end() {
		return ClusterTopKRequest{}, false
	}
	return req, true
}

// topkRequest consumes one canonical ClusterTopKRequest object into
// req, or — with req nil — only recognises it: the gateway forwards the
// bytes and has no use for the values.
func (sc *cursor) topkRequest(req *ClusterTopKRequest) bool {
	if !sc.lit("{") || !sc.key(`"maphash"`) || !sc.lit(`"`) {
		return false
	}
	start := sc.i
	for ; sc.i < len(sc.b) && sc.b[sc.i] != '"'; sc.i++ {
		// Printable ASCII only: an escape, a control byte or anything
		// encoding/json would have to check as UTF-8 is its business.
		if c := sc.b[sc.i]; c < 0x20 || c > 0x7e || c == '\\' {
			return false
		}
	}
	hash := sc.b[start:sc.i]
	if !sc.lit(`"`) || !sc.lit(",") || !sc.key(`"exclude"`) {
		return false
	}
	exclude, ok := sc.uint(math.MaxInt)
	if !ok || !sc.lit(",") || !sc.key(`"qnorm2"`) {
		return false
	}
	// An integer ≤ 2^53 is the float64 strconv.ParseFloat would return.
	qnorm2, ok := sc.uint(1 << 53)
	if !ok || !sc.lit(",") || !sc.key(`"k"`) {
		return false
	}
	k, ok := sc.uint(math.MaxInt)
	if !ok || !sc.lit(",") || !sc.key(`"entries"`) || !sc.lit("[") {
		return false
	}
	if req != nil {
		req.MapHash, req.Exclude, req.QNorm2, req.K = string(hash), int(exclude), float64(qnorm2), int(k)
	}
	for more := true; more; {
		if !sc.lit("{") || !sc.key(`"t"`) {
			return false // includes the empty list
		}
		t, ok := sc.uint(math.MaxInt32)
		if !ok || !sc.lit(",") || !sc.key(`"c"`) {
			return false
		}
		c, ok := sc.uint(math.MaxInt64)
		if !ok || !sc.lit("}") {
			return false
		}
		if req != nil {
			req.Entries = append(req.Entries, WeightedEntry{Tag: int32(t), Count: int64(c)})
		}
		if more, ok = sc.sep(']'); !ok {
			return false
		}
	}
	return sc.lit("}")
}

// checkMapHash enforces shard-map agreement between gateway and node;
// answers 409 and returns false on divergence.
func (s *Server) checkMapHash(w http.ResponseWriter, got string) bool {
	if got == s.cfg.ShardMapHash {
		return true
	}
	if s.cfg.ShardMapHash == "" {
		WriteError(w, http.StatusConflict,
			"node is not cluster-configured (no -cluster-map) but the request carries shard-map hash %q", got)
		return false
	}
	WriteError(w, http.StatusConflict,
		"shard-map mismatch: node has %q, request carries %q — gateway and node were booted from different maps", s.cfg.ShardMapHash, got)
	return false
}

// handleClusterTopK serves both halves of a scatter under one route —
// one admission class, one histogram: GET is the owner's leg, POST
// every other node's.
func (s *Server) handleClusterTopK(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w)
	if svc == nil {
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.clusterTopKOwner(w, r, svc)
	case http.MethodPost:
		s.clusterTopKQuery(w, r, svc)
	default:
		w.Header().Set("Allow", "GET, POST")
		WriteError(w, http.StatusMethodNotAllowed, "%s /cluster/topk: use GET (owner leg) or POST (query leg)", r.Method)
	}
}

func (s *Server) clusterTopKOwner(w http.ResponseWriter, r *http.Request, svc *incentivetag.Service) {
	q := r.URL.Query()
	if !s.checkMapHash(w, q.Get("maphash")) {
		return
	}
	resource, ok := ParseResource(w, q)
	if !ok {
		return
	}
	k, ok := ParseK(w, q)
	if !ok {
		return
	}
	if !svc.OwnsResource(resource) {
		// The gateway asked the wrong node for the subject: its ring
		// disagrees with ours despite the matching hash (should be
		// impossible) or the caller bypassed the gateway. This node holds
		// no vector for it, so the answer is a 421 naming the
		// misdirection. An id outside the corpus passes the ownership
		// check and is SubjectTopK's 400.
		WriteError(w, http.StatusMisdirectedRequest, "resource %d is not owned by this node", resource)
		return
	}
	query, qnorm2, scored, epoch, err := svc.SubjectTopK(resource, k)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req := &ClusterTopKRequest{MapHash: s.cfg.ShardMapHash, Exclude: resource, QNorm2: qnorm2, K: k,
		Entries: make([]WeightedEntry, len(query))}
	for i, e := range query {
		req.Entries[i] = WeightedEntry{Tag: int32(e.Tag), Count: e.Count}
	}
	WriteJSON(w, http.StatusOK, ClusterTopKResponse{Epoch: epoch, Top: topEntries(scored), Query: req})
}

// clusterTopKQuery reads the body once and decodes it with the canonical
// scanner or, when the body is any other JSON, strict encoding/json; both
// hand the same request to rankClusterTopK.
func (s *Server) clusterTopKQuery(w http.ResponseWriter, r *http.Request, svc *incentivetag.Service) {
	buf, err := s.edge.readBody(w, r)
	defer putBody(buf)
	if err != nil {
		s.edge.bodyError(w, err)
		return
	}
	req, ok := scanClusterTopK(buf.Bytes())
	if !ok && !s.edge.decodeJSON(w, bytes.NewReader(buf.Bytes()), &req) {
		return
	}
	s.rankClusterTopK(w, svc, &req)
}

// rankClusterTopK is the one tail behind both POST /cluster/topk
// decoders: map-hash check, owned-only ranking, response.
func (s *Server) rankClusterTopK(w http.ResponseWriter, svc *incentivetag.Service, req *ClusterTopKRequest) {
	if !s.checkMapHash(w, req.MapHash) {
		return
	}
	query := make([]incentivetag.WeightedTag, len(req.Entries))
	for i, e := range req.Entries {
		query[i] = incentivetag.WeightedTag{Tag: incentivetag.Tag(e.Tag), Count: e.Count}
	}
	scored, epoch, err := svc.TopKWeighted(query, req.QNorm2, req.Exclude, req.K)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, ClusterTopKResponse{Epoch: epoch, Top: topEntries(scored)})
}

func (s *Server) handleClusterSearch(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w)
	if svc == nil {
		return
	}
	q := r.URL.Query()
	if s.checkMapHash(w, q.Get("maphash")) {
		serveSearch(w, q, svc)
	}
}
