// Package taxonomy provides a hierarchical category tree standing in for
// the Open Directory Project (dmoz) hierarchy the paper uses as ground
// truth in its Figure 7 experiment (§V-C.2). Resources are attached to
// leaf categories; the ground-truth similarity of two resources is derived
// from the tree distance of their leaves — "the smaller the distance, the
// higher is their similarity".
package taxonomy

import (
	"fmt"
)

// NodeID identifies a node in the tree. The root is always node 0.
type NodeID int32

// Tree is an immutable rooted category tree.
type Tree struct {
	parent []NodeID // parent[i] of node i; parent[0] == 0
	depth  []int    // depth[0] == 0
	name   []string // path-segment name of each node
	leaves []NodeID // all leaf node ids in creation order
}

// Builder constructs a Tree.
type Builder struct {
	t        *Tree
	children map[NodeID][]NodeID
}

// newBuilder returns a builder holding just the root node, named "Top"
// (the conventional dmoz root).
func newBuilder() *Builder {
	t := &Tree{
		parent: []NodeID{0},
		depth:  []int{0},
		name:   []string{"Top"},
	}
	return &Builder{t: t, children: map[NodeID][]NodeID{}}
}

// root returns the root node id.
func (b *Builder) root() NodeID { return 0 }

// addChild appends a child named name under parent and returns its id.
func (b *Builder) addChild(parent NodeID, name string) NodeID {
	if int(parent) >= len(b.t.parent) {
		panic(fmt.Sprintf("taxonomy: addChild under unknown node %d", parent))
	}
	id := NodeID(len(b.t.parent))
	b.t.parent = append(b.t.parent, parent)
	b.t.depth = append(b.t.depth, b.t.depth[parent]+1)
	b.t.name = append(b.t.name, name)
	b.children[parent] = append(b.children[parent], id)
	return id
}

// build finalizes the tree, computing the leaf set.
func (b *Builder) build() *Tree {
	t := b.t
	t.leaves = t.leaves[:0]
	for id := range t.parent {
		if len(b.children[NodeID(id)]) == 0 && id != 0 {
			t.leaves = append(t.leaves, NodeID(id))
		}
	}
	return t
}

// Leaves returns all leaf ids (copy).
func (t *Tree) Leaves() []NodeID {
	out := make([]NodeID, len(t.leaves))
	copy(out, t.leaves)
	return out
}

// Parent returns the parent of id (the root is its own parent).
func (t *Tree) Parent(id NodeID) NodeID { return t.parent[id] }

// Name returns the node's own path segment.
func (t *Tree) Name(id NodeID) string { return t.name[id] }

// lca returns the lowest common ancestor of a and b.
func (t *Tree) lca(a, b NodeID) NodeID {
	for t.depth[a] > t.depth[b] {
		a = t.parent[a]
	}
	for t.depth[b] > t.depth[a] {
		b = t.parent[b]
	}
	for a != b {
		a = t.parent[a]
		b = t.parent[b]
	}
	return a
}

// dist returns the number of tree edges on the path between a and b.
func (t *Tree) dist(a, b NodeID) int {
	l := t.lca(a, b)
	return (t.depth[a] - t.depth[l]) + (t.depth[b] - t.depth[l])
}

// Similarity maps tree distance to a ground-truth similarity in (0, 1]:
// identical leaves score 1, and the score decays as 1/(1+dist). Any
// strictly decreasing map yields the same Kendall ranking, which is all
// the Figure 7 experiment consumes.
func (t *Tree) Similarity(a, b NodeID) float64 {
	return 1.0 / (1.0 + float64(t.dist(a, b)))
}

// topCategories mirrors the flavor of dmoz top-level categories, and
// subCategories supplies themed children. Both are fixed so that dataset
// generation is fully deterministic and resource/category names in the
// case studies read like the paper's tables.
var topCategories = []string{
	"Computers", "Science", "Arts", "Sports", "Recreation",
	"Society", "News", "Shopping", "Reference", "Health",
}

var subCategories = map[string][]string{
	"Computers":  {"Java", "Databases", "Security", "Linux", "Graphics", "Networking"},
	"Science":    {"Physics", "Astronomy", "Biology", "Chemistry", "Math", "Geology"},
	"Arts":       {"Photography", "PhotoEditing", "Music", "Cinema", "VideoEditing", "VideoSharing"},
	"Sports":     {"Football", "Basketball", "Tennis", "Running", "Cycling", "Swimming"},
	"Recreation": {"Travel", "Food", "Games", "Outdoors", "Humor", "Collecting"},
	"Society":    {"History", "Philosophy", "Law", "Politics", "Religion", "Activism"},
	"News":       {"Architecture", "Technology", "Business", "Weather", "Media", "Regional"},
	"Shopping":   {"Books", "Clothing", "Electronics", "Gifts", "Crafts", "Auctions"},
	"Reference":  {"Maps", "Dictionaries", "Education", "Libraries", "Archives", "Almanacs"},
	"Health":     {"Fitness", "Nutrition", "Medicine", "MentalHealth", "Alternative", "PublicHealth"},
}

// BuildDefault constructs the default two-level taxonomy with at least
// minLeaves leaf categories; extra synthetic leaves ("SubN") are appended
// round-robin under the top categories if the themed lists run out.
func BuildDefault(minLeaves int) *Tree {
	b := newBuilder()
	tops := make([]NodeID, len(topCategories))
	for i, name := range topCategories {
		tops[i] = b.addChild(b.root(), name)
	}
	total := 0
	for i, name := range topCategories {
		for _, sub := range subCategories[name] {
			b.addChild(tops[i], sub)
			total++
		}
	}
	extra := 0
	for total < minLeaves {
		i := extra % len(tops)
		b.addChild(tops[i], fmt.Sprintf("Sub%d", extra))
		extra++
		total++
	}
	return b.build()
}

// FindLeaf returns the first leaf whose path ends with the given segment
// name (case-sensitive), or -1 if none matches.
func (t *Tree) FindLeaf(segment string) NodeID {
	for _, l := range t.leaves {
		if t.name[l] == segment {
			return l
		}
	}
	return -1
}
