package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"incentivetag/internal/server"
)

// A scatter encodes its body once and hands the bytes to every leg: do
// must put a json.RawMessage on the wire untouched (re-marshalling one
// would compact the whitespace below), and still encode anything else.
func TestBackendDoSendsRawMessageVerbatim(t *testing.T) {
	var got []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		got = append(got, string(body), r.Header.Get("Content-Type"))
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	b := newBackend(0, Node{Name: "n0", URL: ts.URL}, ts.Client())

	const raw = `{"k":  3, "maphash": "h"}`
	if err := b.do(context.Background(), http.MethodPost, "/cluster/topk", json.RawMessage(raw), nil); err != nil {
		t.Fatal(err)
	}
	if err := b.do(context.Background(), http.MethodPost, "/allocate", struct {
		K int `json:"k"`
	}{3}, nil); err != nil {
		t.Fatal(err)
	}
	want := []string{raw, "application/json", `{"k":3}`, "application/json"}
	if len(got) != len(want) {
		t.Fatalf("recorded %q", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request part %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// The per-backend latency histogram times a request up to the last byte
// of its answer — transfer included, not just the wait for the headers.
func TestBackendLatencyIncludesBody(t *testing.T) {
	const stall = 60 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"epoch":1,`))
		w.(http.Flusher).Flush()
		time.Sleep(stall)
		w.Write([]byte(`"top":[]}`))
	}))
	defer ts.Close()
	b := newBackend(0, Node{Name: "n0", URL: ts.URL}, ts.Client())
	var leg server.ClusterLeg
	buf, err := b.leg(context.Background(), http.MethodGet, "/cluster/search", nil, &leg)
	if err != nil || leg.Epoch != 1 {
		t.Fatalf("leg = %+v, %v", leg, err)
	}
	putAnswer(buf)
	if got := b.hist.Quantile(0.5); got < stall.Seconds() {
		t.Fatalf("histogram observed %.3fs for an answer whose body took %.3fs", got, stall.Seconds())
	}
}
