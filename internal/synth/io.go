package synth

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"incentivetag/internal/sparse"
	"incentivetag/internal/tags"
	"incentivetag/internal/tagstore"
	"incentivetag/internal/taxonomy"
)

// datasetMeta is the gob-encoded sidecar of a persisted dataset: vocabulary
// names and per-resource metadata. The post stream itself lives in a
// tagstore log (posts/ subdirectory) so the storage substrate is exercised
// on real data.
type datasetMeta struct {
	Cfg       Config
	TagNames  []string
	Resources []resourceMeta
}

type resourceMeta struct {
	Name    string
	Leaf    int32
	Initial int
	StableK int
	SeqLen  int
	Drift   *DriftSpec
}

// Save persists the dataset under dir: meta.gob (config, vocab, resource
// metadata) plus a tagstore post log. The directory is created if needed.
func (d *Dataset) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("synth: save: %w", err)
	}
	meta := datasetMeta{Cfg: d.Cfg, TagNames: d.Vocab.Names()}
	for i := range d.Resources {
		r := &d.Resources[i]
		meta.Resources = append(meta.Resources, resourceMeta{
			Name:    r.Name,
			Leaf:    int32(r.Leaf),
			Initial: r.Initial,
			StableK: r.StableK,
			SeqLen:  len(r.Seq),
			Drift:   r.Drift,
		})
	}
	mf, err := os.Create(filepath.Join(dir, "meta.gob"))
	if err != nil {
		return fmt.Errorf("synth: save meta: %w", err)
	}
	if err := gob.NewEncoder(mf).Encode(&meta); err != nil {
		mf.Close()
		return fmt.Errorf("synth: encode meta: %w", err)
	}
	if err := mf.Close(); err != nil {
		return fmt.Errorf("synth: close meta: %w", err)
	}

	store, err := tagstore.Open(filepath.Join(dir, "posts"), tagstore.Options{})
	if err != nil {
		return err
	}
	for i := range d.Resources {
		for _, p := range d.Resources[i].Seq {
			if err := store.Append(uint32(i), p); err != nil {
				store.Close()
				return err
			}
		}
	}
	return store.Close()
}

// Load reads a dataset persisted by Save, recomputing each resource's
// stable rfd from its sequence and recorded stable point.
func Load(dir string) (*Dataset, error) {
	mf, err := os.Open(filepath.Join(dir, "meta.gob"))
	if err != nil {
		return nil, fmt.Errorf("synth: load meta: %w", err)
	}
	var meta datasetMeta
	if err := gob.NewDecoder(mf).Decode(&meta); err != nil {
		mf.Close()
		return nil, fmt.Errorf("synth: decode meta: %w", err)
	}
	mf.Close()

	ds := &Dataset{
		Cfg:    meta.Cfg,
		Vocab:  tags.NewVocab(),
		Tax:    taxonomy.BuildDefault(meta.Cfg.MinLeaves),
		byName: make(map[string]int),
	}
	for _, name := range meta.TagNames {
		ds.Vocab.Intern(name)
	}

	// Read-only: corpus loads must work concurrently (several tools over
	// one -data dir) and from read-only media, and must never mutate the
	// stored corpus.
	store, err := tagstore.Open(filepath.Join(dir, "posts"), tagstore.Options{ReadOnly: true})
	if err != nil {
		return nil, err
	}
	defer store.Close()

	// One pass in append order (the paper's replay order within each
	// resource) fills every resource's sequence.
	seqs := make([]tags.Seq, len(meta.Resources))
	for i, rm := range meta.Resources {
		seqs[i] = make(tags.Seq, 0, rm.SeqLen)
	}
	if _, err := store.ScanFrom(1, func(_ uint64, rid uint32, p tags.Post) error {
		if int(rid) >= len(seqs) {
			return fmt.Errorf("synth: stored post for resource %d, meta lists %d resources", rid, len(seqs))
		}
		seqs[rid] = append(seqs[rid], p)
		return nil
	}); err != nil {
		return nil, err
	}

	ds.Resources = make([]Resource, len(meta.Resources))
	for i, rm := range meta.Resources {
		seq := seqs[i]
		if len(seq) != rm.SeqLen {
			return nil, fmt.Errorf("synth: resource %d has %d stored posts, meta says %d", i, len(seq), rm.SeqLen)
		}
		if rm.StableK <= 0 || rm.StableK > len(seq) {
			return nil, fmt.Errorf("synth: resource %d stable point %d outside (0,%d]", i, rm.StableK, len(seq))
		}
		ds.Resources[i] = Resource{
			ID:        i,
			Name:      rm.Name,
			Leaf:      taxonomy.NodeID(rm.Leaf),
			Seq:       seq,
			Initial:   rm.Initial,
			StableK:   rm.StableK,
			StableRFD: sparse.FromSeq(seq, rm.StableK),
			Drift:     rm.Drift,
		}
		ds.byName[rm.Name] = i
	}
	return ds, nil
}
