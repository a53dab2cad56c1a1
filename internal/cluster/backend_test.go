package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
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
