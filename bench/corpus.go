package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"incentivetag"
)

// corpus is the one fixed-seed dataset every workload of a run draws on.
type corpus struct {
	ds       *incentivetag.Dataset
	universe int
	// future is every resource's recorded future (non-primed) posts in one
	// round-robin interleave: consecutive posts target different
	// resources, the order a crowd tagging a whole collection produces.
	future []incentivetag.PostEvent
}

func newCorpus(n int, seed int64) (*corpus, error) {
	ds, err := incentivetag.Generate(incentivetag.DefaultConfig(n, seed))
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	c := &corpus{ds: ds, universe: ds.Vocab.Size()}
	for k := 0; ; k++ {
		progress := false
		for i := range ds.Resources {
			r := &ds.Resources[i]
			if at := r.Initial + k; at < len(r.Seq) {
				c.future = append(c.future, incentivetag.PostEvent{Resource: i, Post: r.Seq[at]})
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	if len(c.future) == 0 {
		return nil, fmt.Errorf("corpus has no future posts")
	}
	return c, nil
}

func (c *corpus) n() int { return c.ds.N() }

// futurePost is resource i's k-th future post, wrapping around when the
// recording runs out (a live service has no finite replay to exhaust).
func (c *corpus) futurePost(i, k int) incentivetag.Post {
	r := &c.ds.Resources[i]
	left := len(r.Seq) - r.Initial
	if left <= 0 {
		return r.Seq[k%len(r.Seq)]
	}
	return r.Seq[r.Initial+k%left]
}

// appendTags appends a post's tag ids as a JSON array.
func appendTags(dst []byte, p incentivetag.Post) []byte {
	dst = append(dst, '[')
	for i, t := range p {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(t), 10)
	}
	return append(dst, ']')
}

// appendEvents appends {"events":[...]} for a batch, the wire form of
// server.IngestRequest.
func appendEvents(dst []byte, events []incentivetag.PostEvent) []byte {
	dst = append(dst, `{"events":[`...)
	for i, ev := range events {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"resource":`...)
		dst = strconv.AppendInt(dst, int64(ev.Resource), 10)
		dst = append(dst, `,"tags":`...)
		dst = appendTags(dst, ev.Post)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// appendSingle appends {"resource":i,"tags":[...]}, a one-post ingest.
func appendSingle(dst []byte, resource int, p incentivetag.Post) []byte {
	dst = append(dst, `{"resource":`...)
	dst = strconv.AppendInt(dst, int64(resource), 10)
	dst = append(dst, `,"tags":`...)
	dst = appendTags(dst, p)
	return append(dst, '}')
}

// batches cuts the future stream into full batches of size events.
func (c *corpus) batches(size int) [][]incentivetag.PostEvent {
	var out [][]incentivetag.PostEvent
	for at := 0; at+size <= len(c.future); at += size {
		out = append(out, c.future[at:at+size])
	}
	if len(out) == 0 {
		out = append(out, c.future)
	}
	return out
}

// tagSampler draws tags in proportion to how often the corpus uses them.
type tagSampler struct {
	tags []incentivetag.Tag
	cum  []float64
}

func newTagSampler(ds *incentivetag.Dataset) *tagSampler {
	freq := map[incentivetag.Tag]int{}
	for i := range ds.Resources {
		for _, p := range ds.Resources[i].Seq {
			for _, t := range p {
				freq[t]++
			}
		}
	}
	s := &tagSampler{}
	for t := range freq {
		s.tags = append(s.tags, t)
	}
	sort.Slice(s.tags, func(i, j int) bool { return s.tags[i] < s.tags[j] })
	total := 0.0
	for _, t := range s.tags {
		total += float64(freq[t])
		s.cum = append(s.cum, total)
	}
	return s
}

func (s *tagSampler) draw(rng *rand.Rand) incentivetag.Tag {
	x := rng.Float64() * s.cum[len(s.cum)-1]
	return s.tags[sort.SearchFloat64s(s.cum, x)]
}

// searchQuery draws a 2–3 tag query and returns it as a tags= value and
// as the post it denotes.
func (s *tagSampler) searchQuery(rng *rand.Rand) (string, incentivetag.Post) {
	k := 2 + rng.Intn(2)
	ids := make([]incentivetag.Tag, k)
	q := ""
	for i := range ids {
		ids[i] = s.draw(rng)
		if i > 0 {
			q += ","
		}
		q += strconv.Itoa(int(ids[i]))
	}
	post, err := incentivetag.NewPost(ids...)
	if err != nil {
		panic(err) // k ≥ 2 tags: NewPost only rejects an empty post
	}
	return q, post
}

func topkPath(resource int) string {
	return "/topk?resource=" + strconv.Itoa(resource) + "&k=" + strconv.Itoa(topK)
}

func searchPath(tags string) string {
	return "/search?tags=" + tags + "&k=" + strconv.Itoa(topK)
}
