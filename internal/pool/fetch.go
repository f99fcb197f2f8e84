package pool

import (
	"context"
	"fmt"
	"sort"

	"boss/internal/core"
	"boss/internal/corpus"
	"boss/internal/docstore"
	"boss/internal/mem"
	"boss/internal/perf"
)

// Fetch phase of cluster serving: after the root merge ends at scored
// global docIDs, the documents themselves live on the shards that scored
// them. FetchBatch routes each requested docID to its owning shard's
// document store, fetches through the shard's fetch engine (charging the
// shard's simulated SCM under mem.CatLoadDoc), and copies the payloads
// out at the cluster boundary. The per-shard stores are synthesized
// lazily from the retained sampler statistics — payload bytes depend
// only on (Seed, global docID, DocLens), so every shard count packs
// byte-identical documents and fetch results are sharding-independent.
//
// Fetches run through the same executor as searches (exec.go): per-shard
// circuit breakers, bounded retry with jittered backoff, per-attempt
// deadlines, and graceful degradation (a failed shard zeroes its
// documents and sets its Degraded bit instead of failing the batch).

// FetchedDoc is one fetched document at the cluster boundary. Fields are
// copies (one per DocFields entry, in order), so the caller owns them
// outright — no pins or aliases into shard caches escape the cluster.
type FetchedDoc struct {
	DocID  uint32
	Fields [][]byte
}

// DocFields returns the document stores' field names, in the order
// FetchedDoc.Fields uses. Builds the stores if they don't exist yet.
func (cl *Cluster) DocFields() ([]string, error) {
	if err := cl.EnsureDocs(); err != nil {
		return nil, err
	}
	return cl.docs[0].Fields, nil
}

// EnsureDocs builds the per-shard document stores and fetch engines if
// they have not been built yet. Safe for concurrent use; the build runs
// once. Search-only clusters never pay for it.
func (cl *Cluster) EnsureDocs() error {
	cl.docsOnce.Do(cl.buildDocs)
	return cl.docsErr
}

// buildDocs synthesizes one document store per shard over the shard's
// global docID interval, then one fetch engine per replica of the shard.
// Replica 0 serves the base store; higher replicas serve ReplicaViews
// (shared payload bytes, fresh cache identity) and draw faults from
// their own injector domain, mirroring buildReplicas. Runs under
// docsOnce.
func (cl *Cluster) buildDocs() {
	cl.docs = make([]*docstore.Store, len(cl.shards))
	cl.fetchers = make([][]*core.FetchEngine, len(cl.shards))
	var name, text []byte
	for si := range cl.shards {
		lo := cl.offsets[si]
		hi := uint32(cl.spec.NumDocs)
		if si+1 < len(cl.offsets) {
			hi = cl.offsets[si+1]
		}
		b := docstore.NewBuilder("name", "text")
		for g := lo; g < hi; g++ {
			name = corpus.DocName(name[:0], g)
			text = corpus.DocText(cl.spec.Seed, g, cl.docLens[g], cl.spec.NumTerms, text[:0])
			if err := b.Add(name, text); err != nil {
				cl.docsErr = err
				return
			}
		}
		cl.docs[si] = b.Build()
		reps := make([]*core.FetchEngine, cl.Replicas())
		for ri := range reps {
			store := cl.docs[si]
			if ri > 0 {
				store = store.ReplicaView()
			}
			eng := core.NewFetchEngine(store, cl.cache)
			if cl.faultPlan != nil {
				eng.SetFault(cl.faultPlan.InjectorFor(cl.ReplicaDevice(si, ri)))
			}
			reps[ri] = eng
		}
		cl.fetchers[si] = reps
	}
}

// shardOfDoc returns the shard owning global docID id (offsets are the
// sorted interval starts).
func (cl *Cluster) shardOfDoc(id uint32) int {
	return sort.Search(len(cl.offsets), func(i int) bool { return cl.offsets[i] > id }) - 1
}

// fetchRangeError reports a request for a docID the corpus doesn't hold.
func fetchRangeError(id uint32, n int) error {
	return fmt.Errorf("pool: fetch docID %d out of range (corpus holds %d documents)", id, n)
}

// FetchBatch fetches the documents with the given global docIDs. The
// result's Docs holds one entry per requested id, in input order; TopK
// stays empty. Shard failures degrade: the failed shard's documents are
// zero-valued, its Degraded bit is set, and its error lands in
// ShardErrs. The call errors only on invalid ids, a dead context, or
// when every involved shard failed.
func (cl *Cluster) FetchBatch(ctx context.Context, ids []uint32) (*ClusterResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return cl.fetch(ctx, ids, 0, false)
}

// fetchPlan is a fetch task's routing: ids[si] are the requested docIDs
// shard si owns, pos[si] their positions in the request, and docs the
// result slots the attempts fill.
type fetchPlan struct {
	ids  [][]uint32
	pos  [][]int
	docs []FetchedDoc
}

// fetch routes each requested docID to its owning shard and runs the
// fetch through the executor (under a front-door shard mask; serial as
// in execute). Fetches ride the same attempt loop, breakers, and
// degradation as searches.
func (cl *Cluster) fetch(ctx context.Context, ids []uint32, mask uint64, serial bool) (*ClusterResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cl.EnsureDocs(); err != nil {
		return nil, err
	}
	fp := &fetchPlan{
		ids:  make([][]uint32, len(cl.shards)),
		pos:  make([][]int, len(cl.shards)),
		docs: make([]FetchedDoc, len(ids)),
	}
	for i, id := range ids {
		if int(id) >= cl.spec.NumDocs {
			return nil, fetchRangeError(id, cl.spec.NumDocs)
		}
		si := cl.shardOfDoc(id)
		fp.ids[si] = append(fp.ids[si], id)
		fp.pos[si] = append(fp.pos[si], i)
	}
	return cl.execute(ctx, &task{fetch: fp, mask: mask, qkey: fetchQueryKey(ids)}, serial)
}

// fetchQueryKey folds a fetch's docID set into the stable query key the
// replica rotation hashes on, so a given fetch routes to the same copies
// across replays just like a search expression does.
func fetchQueryKey(ids []uint32) uint64 {
	var key uint64
	for _, id := range ids {
		key = splitmix64(key ^ uint64(id))
	}
	return key
}

// fetchAttempt issues one fetch attempt on replica ri of shard si under
// the per-attempt deadline: every requested document streams through
// the replica's fetch engine, and the payloads are copied into the
// plan's docs at their request positions. A fresh Metrics per attempt
// keeps retried attempts from double-charging the recorded shard work;
// a failed attempt zeroes the documents it touched so degraded entries
// are unambiguous.
func (cl *Cluster) fetchAttempt(ctx context.Context, fp *fetchPlan, si, ri int) shardOut {
	if cl.res.ShardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cl.res.ShardTimeout)
		defer cancel()
	}
	eng := cl.fetchers[si][ri]
	off := cl.offsets[si]
	m := perf.NewMetrics()
	var buf core.DocBuf
	defer buf.Release()
	for j, id := range fp.ids[si] {
		if err := eng.FetchInto(ctx, id-off, m, &buf); err != nil {
			for _, p := range fp.pos[si] {
				fp.docs[p] = FetchedDoc{}
			}
			return shardOut{err: shardError(si, err)}
		}
		d := &fp.docs[fp.pos[si][j]]
		d.DocID = id
		d.Fields = copyFields(d.Fields, buf.Fields)
		var n int64
		for _, f := range buf.Fields {
			n += int64(len(f))
		}
		// The returned payload crosses the shared interconnect to the root.
		m.AddHost(n, mem.CatLoadDoc)
	}
	return shardOut{m: m}
}

// copyFields replaces dst with copies of src's field slices, reusing
// dst's backing array across calls.
func copyFields(dst, src [][]byte) [][]byte {
	dst = dst[:0]
	for _, f := range src {
		dst = append(dst, append([]byte(nil), f...))
	}
	return dst
}

// attachDocs fetches a search result's top-k documents and folds the
// fetch work into the result: Docs holds one entry per TopK entry, the
// fetch shards' metrics merge into PerShard, and fetch degradation
// unions into the Degraded mask.
func (cl *Cluster) attachDocs(ctx context.Context, res *ClusterResult) (*ClusterResult, error) {
	ids := make([]uint32, len(res.TopK))
	for i, e := range res.TopK {
		ids[i] = e.DocID
	}
	fr, err := cl.FetchBatch(ctx, ids)
	if err != nil {
		return nil, err
	}
	res.Docs = fr.Docs
	res.LinkBytes += fr.LinkBytes
	res.Degraded |= fr.Degraded
	for si, m := range fr.PerShard {
		if m == nil {
			continue
		}
		if res.PerShard[si] == nil {
			res.PerShard[si] = m
		} else {
			res.PerShard[si].Merge(m)
		}
	}
	if fr.ShardErrs != nil {
		if res.ShardErrs == nil {
			res.ShardErrs = make([]error, len(res.PerShard))
		}
		for si, e := range fr.ShardErrs {
			if e != nil && res.ShardErrs[si] == nil {
				res.ShardErrs[si] = e
			}
		}
	}
	return res, nil
}

// SearchFetchCtx is SearchCtx plus the fetch phase: the merged top-k's
// documents come back in Docs (one entry per TopK entry, in rank order).
// Search and fetch degrade independently; both phases' failed shards
// appear in the Degraded mask.
func (cl *Cluster) SearchFetchCtx(ctx context.Context, expr string, k int) (*ClusterResult, error) {
	res, err := cl.SearchCtx(ctx, expr, k)
	if err != nil {
		return nil, err
	}
	return cl.attachDocs(ctx, res)
}

// SearchFetchBatch pipelines search+fetch over a query batch: each
// worker owns one in-flight query, sweeps it across all shards, then
// fetches its merged top-k documents. Per-query results match
// SearchFetchCtx.
func (cl *Cluster) SearchFetchBatch(ctx context.Context, exprs []string, k int) *BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	return cl.batch(ctx, len(exprs), func(qi int) (*ClusterResult, error) {
		res, err := cl.search(ctx, exprs[qi], k, 0, true)
		if err != nil {
			return nil, err
		}
		return cl.attachDocs(ctx, res)
	})
}
