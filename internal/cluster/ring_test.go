package cluster

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

func testMap(t *testing.T, names ...string) *Map {
	t.Helper()
	m := &Map{VNodes: 64}
	for _, n := range names {
		m.Nodes = append(m.Nodes, Node{Name: n, URL: "http://127.0.0.1:1"})
	}
	if err := m.validate(); err != nil {
		t.Fatalf("test map invalid: %v", err)
	}
	return m
}

// Placement is a pure function of the map: two rings built from the
// same names and vnode count agree on every resource.
func TestRingDeterministic(t *testing.T) {
	a := testMap(t, "n0", "n1", "n2").Ring()
	b := testMap(t, "n0", "n1", "n2").Ring()
	for id := 0; id < 10000; id++ {
		if a.Owner(id) != b.Owner(id) {
			t.Fatalf("resource %d: %d vs %d", id, a.Owner(id), b.Owner(id))
		}
	}
}

// Placement is frozen: the digest below was taken from the ring as first
// shipped, so any change to the key format, the hash or the tie-break —
// which would silently re-home live resources and move the map hash's
// meaning — fails here. Negative and large ids pin the key formatting.
func TestRingPlacementGolden(t *testing.T) {
	m := testMap(t, "n0", "n1", "n2")
	r := m.Ring()
	owners := make([]byte, 10000)
	for id := range owners {
		owners[id] = byte(r.Owner(id))
	}
	const want = "e157044d7fad326de9d6893fe50e28302e2271c28e2f16edf367e9dbb9ec081b"
	if got := fmt.Sprintf("%x", sha256.Sum256(owners)); got != want {
		t.Fatalf("placement of ids 0..9999 moved: digest %s, want %s", got, want)
	}
	if r.Owner(-7) != 2 {
		t.Fatalf("placement of -7 moved: %d, want 2", r.Owner(-7))
	}
	// 2^40 is an id only where int is 64 bits wide; as a constant it
	// would not compile for GOARCH=386.
	if big := int64(1) << 40; int64(int(big)) == big && r.Owner(int(big)) != 1 {
		t.Fatalf("placement of 2^40 moved: %d, want 1", r.Owner(int(big)))
	}
	if m.Hash() != "48e561dc5c0125c8" {
		t.Fatalf("map hash moved: %s", m.Hash())
	}
}

// Placement sits on the gateway's per-event and per-query path; it must
// not allocate.
func TestRingOwnerAllocFree(t *testing.T) {
	r := testMap(t, "n0", "n1", "n2").Ring()
	id := 0
	if a := testing.AllocsPerRun(1000, func() {
		r.Owner(id)
		r.Owner(-id)
		id += 7919
	}); a != 0 {
		t.Fatalf("Ring.Owner allocates %.1f times per call pair", a)
	}
}

// Every resource lands on exactly one node, and with 64 vnodes the
// split over 3 nodes is not pathologically skewed.
func TestRingCoverageAndBalance(t *testing.T) {
	r := testMap(t, "n0", "n1", "n2").Ring()
	counts := make([]int, 3)
	const n = 30000
	for id := 0; id < n; id++ {
		o := r.Owner(id)
		if o < 0 || o >= 3 {
			t.Fatalf("resource %d: owner %d out of range", id, o)
		}
		counts[o]++
	}
	for i, c := range counts {
		if c < n/10 {
			t.Fatalf("node %d owns only %d of %d resources: %v", i, c, n, counts)
		}
	}

	// The production key shape is a small contiguous id window (resource
	// indexes 0..n-1), which is where weak avalanche bites: without the
	// splitmix finalizer, raw FNV-1a left one of three nodes owning zero
	// of the first ~200 ids. Require a sane share of a small window too.
	small := make([]int, 3)
	const w = 300
	for id := 0; id < w; id++ {
		small[r.Owner(id)]++
	}
	for i, c := range small {
		if c < w/10 {
			t.Fatalf("node %d owns only %d of the first %d ids: %v", i, c, w, small)
		}
	}
}

// The consistent-hashing property: removing one node only remaps the
// resources that node owned; every other resource keeps its owner.
func TestRingConsistencyUnderRemoval(t *testing.T) {
	full := testMap(t, "n0", "n1", "n2")
	reduced := testMap(t, "n0", "n1") // n2 removed
	rf, rr := full.Ring(), reduced.Ring()
	moved := 0
	for id := 0; id < 10000; id++ {
		of := rf.Owner(id)
		if of == 2 {
			moved++
			continue // n2's resources must move somewhere
		}
		if or := rr.Owner(id); or != of {
			t.Fatalf("resource %d owned by surviving node %d moved to %d", id, of, or)
		}
	}
	if moved == 0 {
		t.Fatal("node n2 owned nothing — balance test should have caught this")
	}
}

// OwnedBy predicates partition the id space: exactly one node owns
// every resource, and the predicate agrees with the ring.
func TestOwnedByPartition(t *testing.T) {
	m := testMap(t, "n0", "n1", "n2")
	ring := m.Ring()
	preds := make([]func(int) bool, 3)
	for i, n := range m.Nodes {
		p, err := m.OwnedBy(n.Name)
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = p
	}
	if _, err := m.OwnedBy("ghost"); err == nil {
		t.Fatal("OwnedBy accepted a name not in the map")
	}
	for id := 0; id < 5000; id++ {
		owners := 0
		for i, p := range preds {
			if p(id) {
				owners++
				if ring.Owner(id) != i {
					t.Fatalf("resource %d: predicate says node %d, ring says %d", id, i, ring.Owner(id))
				}
			}
		}
		if owners != 1 {
			t.Fatalf("resource %d has %d owners", id, owners)
		}
	}
}

func TestMapHash(t *testing.T) {
	base := testMap(t, "n0", "n1", "n2")
	if h := base.Hash(); h != testMap(t, "n0", "n1", "n2").Hash() {
		t.Fatalf("hash not deterministic: %s", h)
	}
	if len(base.Hash()) != 16 {
		t.Fatalf("hash %q is not 16 hex digits", base.Hash())
	}
	// Placement-relevant changes move the hash...
	variants := []*Map{
		testMap(t, "n0", "n1"),          // node removed
		testMap(t, "n1", "n0", "n2"),    // order changed
		testMap(t, "n0", "n1", "n2x"),   // name changed
		testMap(t, "n0", "n1n", "2"),    // same concatenation, different boundaries
		{VNodes: 32, Nodes: base.Nodes}, // vnodes changed
	}
	for i, v := range variants {
		if v.Hash() == base.Hash() {
			t.Fatalf("variant %d collides with base hash", i)
		}
	}
	// ...and URL changes do not (a node may move address freely).
	moved := testMap(t, "n0", "n1", "n2")
	moved.Nodes[1].URL = "http://10.0.0.9:9999"
	if moved.Hash() != base.Hash() {
		t.Fatal("URL change moved the placement hash")
	}
}

func TestParseMapValidation(t *testing.T) {
	good := `{"vnodes": 8, "nodes": [{"name":"a","url":"http://h:1"},{"name":"b","url":"http://h:2"}]}`
	m, err := ParseMap([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if m.VNodes != 8 || len(m.Nodes) != 2 {
		t.Fatalf("parsed %+v", m)
	}
	if m, err := ParseMap([]byte(`{"nodes": [{"name":"a","url":"http://h:1"}]}`)); err != nil || m.VNodes != DefaultVNodes {
		t.Fatalf("vnodes default: %+v, %v", m, err)
	}
	for name, bad := range map[string]string{
		"empty nodes":    `{"nodes": []}`,
		"unknown field":  `{"nodez": []}`,
		"duplicate name": `{"nodes":[{"name":"a","url":"http://h:1"},{"name":"a","url":"http://h:2"}]}`,
		"empty name":     `{"nodes":[{"name":"","url":"http://h:1"}]}`,
		"bad url":        `{"nodes":[{"name":"a","url":"not a url"}]}`,
		"negative vnode": `{"vnodes":-1,"nodes":[{"name":"a","url":"http://h:1"}]}`,
		"not json":       `nope`,
	} {
		if _, err := ParseMap([]byte(bad)); err == nil {
			t.Errorf("%s: accepted %s", name, bad)
		}
	}
}

func TestLoadMapMissingFile(t *testing.T) {
	if _, err := LoadMap("/nonexistent/shards.json"); err == nil || !strings.Contains(err.Error(), "shard map") {
		t.Fatalf("err = %v", err)
	}
}
