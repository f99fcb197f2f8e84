package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"boss"
	"boss/internal/corpus"
	"boss/internal/perf"
	"boss/internal/pool"
	"boss/internal/query"
)

// clusterHot sizes the cluster-hot workload: a CC-News-like corpus on
// four shards behind the default 64 MiB decoded-block cache, which holds
// the whole decoded working set of a Zipf query mix.
type clusterHotSize struct {
	scale     float64
	shards    int
	perSecond int // distinct list entries per second of --seconds
	k         int
}

func clusterHotSizes(tiny bool) clusterHotSize {
	if tiny {
		return clusterHotSize{scale: 0.004, shards: 4, perSecond: 20, k: 10}
	}
	return clusterHotSize{scale: 0.3, shards: 4, perSecond: 300, k: 10}
}

// newCluster builds a sharded deployment exactly as boss.Shard does, but
// keeps the cluster handle so the run can read the layers' counters.
func newCluster(spec corpus.Spec, shards int) (*pool.Cluster, error) {
	return pool.NewCluster(pool.DefaultConfig(), corpus.Generate(spec), shards)
}

func runClusterHot(cfg config, tr *tracer) (*result, error) {
	sz := clusterHotSizes(cfg.tiny)
	spec := corpus.CCNewsLike(sz.scale)
	n := sz.perSecond * cfg.seconds
	res := newResult()
	clock := time.Now()

	// Requests come from the corpus's term popularity; the corpus is a
	// pure function of the spec, so generating it here is not set-up.
	exprs := exprsOf(mixQueries(corpus.Generate(spec), n, true, cfg.seed))
	ref, err := referenceDigests(boss.CCNewsLike, sz.scale, exprs, sz.k, nil)
	if err != nil {
		return nil, err
	}

	res.phase("reference", &clock)

	cl, err := timedSetup(res, cfg, func() (*pool.Cluster, error) { return newCluster(spec, sz.shards) }, nil)
	if err != nil {
		return nil, err
	}
	res.phase("setup", &clock)
	ctx := context.Background()

	// Warm pass: every distinct query once, so the timed phase runs on a
	// warm cache.
	for _, e := range distinct(exprs) {
		r, err := cl.SearchCtx(ctx, e, sz.k)
		if err != nil || r.Degraded != 0 || digest(entryIDs(r.TopK)) != ref[e] {
			return nil, fmt.Errorf("warm %s: wrong answer (err=%v)", e, err)
		}
	}
	warm := cl.CacheStats()
	res.phase("warm", &clock)
	ms := make([]*perf.Metrics, n)
	var failed atomic.Int64
	ps := closedLoop(n, func(pass, i int) time.Duration {
		req := int64(pass*n + i)
		root := tr.begin("request", req, 0)
		if tr != nil {
			p := tr.begin("query.parse", req, root.id)
			if node, err := query.Parse(exprs[i]); err == nil {
				_ = node.Canonical()
			}
			tr.end(p)
		}
		sp := tr.begin("pool.search", req, root.id)
		start := time.Now()
		r, err := cl.SearchCtx(ctx, exprs[i], sz.k)
		lat := time.Since(start)
		tr.end(sp)
		tr.end(root)
		if err != nil || r.Degraded != 0 || digest(entryIDs(r.TopK)) != ref[exprs[i]] {
			failed.Add(1)
		} else if pass == 0 {
			ms[i] = merged(r.PerShard)
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
	st := cl.CacheStats()
	res.layers["cache.posting_hit_ratio"] = ratio(st.PostingHits-warm.PostingHits, st.PostingHits-warm.PostingHits+st.PostingMisses-warm.PostingMisses)
	res.layers["cache.evictions_per_query"] = float64(st.Evictions-warm.Evictions) / float64(n*timedPasses)
	res.layers["cache.bypasses"] = float64(st.Bypasses - warm.Bypasses)
	poolEvents(res, cl)
	res.props["repeat_share"] = repeatShare(exprs)
	res.props["cache_budget_mib"] = float64(st.BudgetBytes) / (1 << 20)
	// Nothing is evicted, so what the cache holds is the decoded working
	// set.
	res.props["working_set_mib"] = float64(st.ResidentBytes) / (1 << 20)
	latencyMetrics(res, ps)
	runtime.KeepAlive(cl)
	if tr != nil {
		decodeLayers(res, buildLayers(res, spec), exprs)
		res.phase("layers", &clock)
	}
	return res, nil
}

// poolEvents reports the resilience layer's counters: retries and hedges
// fired, and how many events the cluster retains.
func poolEvents(res *result, cl *pool.Cluster) {
	var retained, retries, hedges int
	for si := 0; si < cl.Shards(); si++ {
		for _, ev := range cl.Events(si) {
			retained++
			switch {
			case ev.Kind == pool.EvAttempt && ev.Attempt > 0:
				retries++
			case ev.Kind == pool.EvHedge:
				hedges++
			}
		}
	}
	res.layers["pool.events_retained"] = float64(retained)
	res.layers["pool.retries"] = float64(retries)
	res.layers["pool.hedges"] = float64(hedges)
}
