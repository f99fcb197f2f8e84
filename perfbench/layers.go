package main

import (
	"strings"
	"time"

	"boss/internal/compress"
	"boss/internal/corpus"
	"boss/internal/decomp"
	"boss/internal/docstore"
	"boss/internal/index"
	"boss/internal/mem"
	"boss/internal/query"
)

// probeBlocks caps how many posting blocks a traced run times per scheme.
const probeBlocks = 2000

// catName is the metric suffix of a device traffic category ("LD List"
// becomes "ld_list").
func catName(c int) string {
	return strings.ReplaceAll(strings.ToLower(mem.Category(c).String()), " ", "_")
}

// blockRef names one posting block.
type blockRef struct {
	pl *index.PostingList
	b  int
}

// workloadBlocks collects the posting blocks of the terms the request
// list names, grouped by the list's compression scheme, up to
// probeBlocks per scheme.
func workloadBlocks(idx *index.Index, exprs []string) map[compress.Scheme][]blockRef {
	out := make(map[compress.Scheme][]blockRef)
	seen := make(map[string]bool)
	for _, e := range exprs {
		node, err := query.Parse(e)
		if err != nil {
			continue
		}
		for _, conj := range node.DNF() {
			for _, term := range conj {
				pl := idx.List(term)
				if pl == nil || seen[term] {
					continue
				}
				seen[term] = true
				for b := range pl.Blocks {
					if len(out[pl.Scheme]) < probeBlocks {
						out[pl.Scheme] = append(out[pl.Scheme], blockRef{pl, b})
					}
				}
			}
		}
	}
	return out
}

// decodeLayers times the decode paths over the workload's own blocks: the
// cycle-level netlist (decomp.Module.DecodeInto) the serving path runs on
// a cache miss, the native codec (compress.Codec.Decode) on the same
// payloads, index.DecodeBlock, and the codec's encoder.
func decodeLayers(res *result, idx *index.Index, exprs []string) {
	var docs, tfs []uint32
	var enc []byte
	var idxNs, encNs float64
	var idxN int
	byScheme := workloadBlocks(idx, exprs)
	for _, s := range compress.AllSchemes() {
		name := s.String()
		blocks := byScheme[s]
		res.layers["decomp.decode_ns_per_block."+name] = 0
		res.layers["decomp.cycles_per_block."+name] = 0
		res.layers["compress.decode_ns_per_block."+name] = 0
		if len(blocks) == 0 {
			continue
		}
		mod := decomp.NewModuleFor(s)
		var cycles int64
		start := time.Now()
		for _, br := range blocks {
			meta := br.pl.Blocks[br.b]
			payload := br.pl.Data[meta.Offset : meta.Offset+meta.Length]
			n := int(meta.Count)
			var used, cyc int
			var err error
			docs, used, cyc, err = mod.DecodeInto(docs[:0], payload, n, meta.FirstDoc, true)
			if err != nil {
				res.failed++
				continue
			}
			cycles += int64(cyc)
			tfs, _, cyc, _ = mod.DecodeInto(tfs[:0], payload[used:], n, 0, false)
			cycles += int64(cyc)
		}
		nb := float64(len(blocks))
		res.layers["decomp.decode_ns_per_block."+name] = float64(time.Since(start)) / nb
		res.layers["decomp.cycles_per_block."+name] = float64(cycles) / nb

		codec := compress.ForScheme(s)
		start = time.Now()
		for _, br := range blocks {
			meta := br.pl.Blocks[br.b]
			payload := br.pl.Data[meta.Offset : meta.Offset+meta.Length]
			var used int
			docs, used = codec.Decode(docs[:0], payload, int(meta.Count))
			tfs, _ = codec.Decode(tfs[:0], payload[used:], int(meta.Count))
		}
		res.layers["compress.decode_ns_per_block."+name] = float64(time.Since(start)) / nb

		for _, br := range blocks {
			start = time.Now()
			docs, tfs = idx.DecodeBlock(br.pl, br.b, docs[:0], tfs[:0])
			idxNs += float64(time.Since(start))
			idxN++
			compress.DeltaEncode(docs, br.pl.Blocks[br.b].FirstDoc)
			start = time.Now()
			enc = codec.Encode(enc[:0], docs)
			enc = codec.Encode(enc, tfs)
			encNs += float64(time.Since(start))
		}
	}
	if idxN > 0 {
		res.layers["index.decode_block_us"] = idxNs / 1e3 / float64(idxN)
		res.layers["compress.encode_ns_per_block"] = encNs / float64(idxN)
	}
}

// buildLayers times the set-up layers once more, outside set-up: corpus
// generation and the index build.
func buildLayers(res *result, spec corpus.Spec) *index.Index {
	start := time.Now()
	c := corpus.Generate(spec)
	res.layers["corpus.generate_s"] = time.Since(start).Seconds()
	start = time.Now()
	idx := index.Build(c, index.BuildOptions{Scheme: compress.SchemeHybrid})
	res.layers["index.build_s"] = time.Since(start).Seconds()
	return idx
}

// docstoreLayer packs the document store of the given documents the way
// the fetch path does and times decoding the blocks that hold them.
func docstoreLayer(res *result, spec corpus.Spec, c *corpus.Corpus, ids []uint32) {
	b := docstore.NewBuilder("name", "text")
	var name, text []byte
	for id := 0; id < spec.NumDocs; id++ {
		name = corpus.DocName(name[:0], uint32(id))
		text = corpus.DocText(spec.Seed, uint32(id), c.DocLens[id], spec.NumTerms, text[:0])
		if err := b.Add(name, text); err != nil {
			res.failed++
			return
		}
	}
	st := b.Build()
	raw := make([]byte, st.MaxRawLen())
	seen := make(map[int]bool)
	var bytes int64
	start := time.Now()
	for _, id := range ids {
		bi := st.BlockOf(id)
		if seen[bi] {
			continue
		}
		seen[bi] = true
		m := st.Blocks[bi]
		if err := st.DecodeBlock(raw[:m.RawLen], st.BlockPayload(bi)); err != nil {
			res.failed++
			return
		}
		bytes += int64(m.RawLen)
	}
	if el := time.Since(start).Seconds(); el > 0 {
		res.layers["docstore.decode_mb_s"] = float64(bytes) / 1e6 / el
	}
}
