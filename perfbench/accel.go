package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"boss"
	"boss/internal/cache"
	"boss/internal/compress"
	"boss/internal/core"
	"boss/internal/corpus"
	"boss/internal/index"
	"boss/internal/perf"
	"boss/internal/query"
)

// accelColdSize sizes the accel-cold workload: one accelerator over a
// ClueWeb-like corpus whose decoded working set under the TREC-like query
// mix is several times its decoded-block cache budget.
type accelColdSize struct {
	scale      float64
	cacheBytes int64
	perSecond  int // distinct list entries per second of --seconds
	k          int
}

func accelColdSizes(tiny bool) accelColdSize {
	if tiny {
		return accelColdSize{scale: 0.004, cacheBytes: 64 << 10, perSecond: 20, k: 100}
	}
	return accelColdSize{scale: 0.1, cacheBytes: 512 << 10, perSecond: 300, k: 100}
}

// newAccelerator builds a single device exactly as boss.BuildSynthetic
// and Index.Accelerator do, keeping the index and cache handles.
func newAccelerator(spec corpus.Spec, cacheBytes int64) (*core.Accelerator, *index.Index) {
	idx := index.Build(corpus.Generate(spec), index.BuildOptions{Scheme: compress.SchemeHybrid})
	return core.NewCached(idx, core.DefaultOptions(), cache.New(cacheBytes)), idx
}

func runAccelCold(cfg config, tr *tracer) (*result, error) {
	sz := accelColdSizes(cfg.tiny)
	spec := corpus.ClueWebLike(sz.scale)
	n := sz.perSecond * cfg.seconds
	res := newResult()
	clock := time.Now()

	exprs := exprsOf(mixQueries(corpus.Generate(spec), n, false, cfg.seed))
	ref, err := referenceDigests(boss.ClueWebLike, sz.scale, exprs, sz.k, nil)
	if err != nil {
		return nil, err
	}
	res.phase("reference", &clock)

	type dep struct {
		acc *core.Accelerator
		idx *index.Index
	}
	d, err := timedSetup(res, cfg, func() (dep, error) {
		acc, idx := newAccelerator(spec, sz.cacheBytes)
		return dep{acc, idx}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	acc := d.acc
	res.phase("setup", &clock)

	// No warm pass: the cache is meant to miss. The first pass fills it
	// and every later pass runs at the steady miss and evict rate.
	ms := make([]*perf.Metrics, n)
	var failed atomic.Int64
	ps := closedLoop(n, func(pass, i int) time.Duration {
		req := int64(pass*n + i)
		root := tr.begin("request", req, 0)
		start := time.Now()
		p := tr.begin("query.parse", req, root.id)
		node, err := query.Parse(exprs[i])
		tr.end(p)
		var r core.Result
		if err == nil {
			sp := tr.begin("core.run", req, root.id)
			r, err = acc.Run(node, sz.k)
			tr.end(sp)
		}
		lat := time.Since(start)
		tr.end(root)
		if err != nil || digest(entryIDs(r.TopK)) != ref[exprs[i]] {
			failed.Add(1)
		} else if pass == 0 {
			ms[i] = r.M
		}
		return lat
	})
	res.phase("timed", &clock)
	var sum simSum
	for _, m := range ms {
		if m != nil {
			sum.add(m)
		}
	}
	ms = nil
	closedResult(res, int64(n*timedPasses), failed.Load())
	simMetrics(res, &sum)
	st := acc.Cache().Stats()
	res.layers["cache.posting_hit_ratio"] = st.PostingHitRate()
	res.layers["cache.evictions_per_query"] = float64(st.Evictions) / float64(n*timedPasses)
	res.layers["cache.bypasses"] = float64(st.Bypasses)
	res.props["repeat_share"] = repeatShare(exprs)
	res.props["cache_budget_mib"] = float64(st.BudgetBytes) / (1 << 20)
	latencyMetrics(res, ps)
	runtime.KeepAlive(acc)
	if tr != nil {
		res.props["working_set_mib"] = workingSetMiB(d.idx, exprs, sz.k)
		buildLayers(res, spec)
		decodeLayers(res, d.idx, exprs)
		res.phase("layers", &clock)
	}
	return res, nil
}

// workingSetMiB serves the request list once on a fresh accelerator with
// an unbounded cache and returns what the cache then holds: the decoded
// working set of the list.
func workingSetMiB(idx *index.Index, exprs []string, k int) float64 {
	c := cache.New(1 << 40)
	acc := core.NewCached(idx, core.DefaultOptions(), c)
	for _, e := range distinct(exprs) {
		if node, err := query.Parse(e); err == nil {
			_, _ = acc.Run(node, k) // answers were verified in the timed phase
		}
	}
	return float64(c.Stats().ResidentBytes) / (1 << 20)
}
