package cluster

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"strings"
)

// DefaultVNodes is the virtual-node count when the shard map omits
// "vnodes". 64 points per node keeps the expected per-node share within
// a few percent of uniform for small clusters while the ring stays tiny.
const DefaultVNodes = 64

// Node is one cluster member: a stable name (the placement identity —
// renaming a node remaps its resources; changing only its URL does not)
// and the base URL its tagserved listens on.
type Node struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Map is the static cluster membership, loaded from a JSON file at boot
// by the gateway and by every node:
//
//	{"vnodes": 64, "nodes": [
//	  {"name": "node0", "url": "http://127.0.0.1:8081"},
//	  {"name": "node1", "url": "http://127.0.0.1:8082"}]}
type Map struct {
	VNodes int    `json:"vnodes,omitempty"`
	Nodes  []Node `json:"nodes"`
}

// LoadMap reads and validates a shard-map file.
func LoadMap(path string) (*Map, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading shard map: %w", err)
	}
	m, err := ParseMap(data)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard map %s: %w", path, err)
	}
	return m, nil
}

// ParseMap decodes and validates shard-map JSON. Unknown fields are
// rejected — a typoed key in a placement file must not be silently
// ignored.
func ParseMap(data []byte) (*Map, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var m Map
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	if m.VNodes == 0 {
		m.VNodes = DefaultVNodes
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

func (m *Map) validate() error {
	if m.VNodes < 1 {
		return fmt.Errorf("vnodes must be >= 1, got %d", m.VNodes)
	}
	if len(m.Nodes) == 0 {
		return fmt.Errorf("no nodes")
	}
	seen := make(map[string]bool, len(m.Nodes))
	for i, n := range m.Nodes {
		if n.Name == "" {
			return fmt.Errorf("node %d: empty name", i)
		}
		if strings.ContainsAny(n.Name, "\"\n") {
			return fmt.Errorf("node %d: name %q contains a quote or newline", i, n.Name)
		}
		if seen[n.Name] {
			return fmt.Errorf("duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
		u, err := url.Parse(n.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return fmt.Errorf("node %q: invalid url %q", n.Name, n.URL)
		}
	}
	return nil
}

// Hash is the deterministic placement fingerprint: FNV-1a over the
// virtual-node count and the ordered node names — exactly the inputs
// Owner depends on, and nothing else (a node may change its URL without
// remapping anything). Rendered as 16 hex digits; exchanged on every
// cluster RPC and refused with 409 on mismatch.
func (m *Map) Hash() string {
	h := uint64(fnvOffset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= fnvPrime64
		}
		h ^= 0x1f // unit-separator byte keeps "ab","c" distinct from "a","bc"
		h *= fnvPrime64
	}
	mix(fmt.Sprintf("vnodes=%d", m.VNodes))
	for _, n := range m.Nodes {
		mix(n.Name)
	}
	return fmt.Sprintf("%016x", h)
}

// Ring builds the consistent-hash ring for this map.
func (m *Map) Ring() *Ring {
	names := make([]string, len(m.Nodes))
	for i, n := range m.Nodes {
		names[i] = n.Name
	}
	return newRing(names, m.VNodes)
}

// NodeIndex resolves a node name to its index, for -cluster-self.
func (m *Map) NodeIndex(name string) (int, error) {
	for i, n := range m.Nodes {
		if n.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("cluster: node %q not in shard map", name)
}

// OwnedBy builds the ownership predicate for one named member: the
// function a node passes as ServiceOptions.Owned so it holds — primes,
// indexes, allocates and persists — exactly the resources the gateway's
// ring routes to it.
func (m *Map) OwnedBy(name string) (func(int) bool, error) {
	idx, err := m.NodeIndex(name)
	if err != nil {
		return nil, err
	}
	ring := m.Ring()
	return func(resource int) bool { return ring.Owner(resource) == idx }, nil
}
