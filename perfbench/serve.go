package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"boss"
	"boss/internal/corpus"
	"boss/internal/front"
	"boss/internal/pool"
)

// serveOpenSize sizes the serve-open workload: the cluster-hot
// deployment behind the front door with its default configuration, fed
// by one open-loop generator at a fixed absolute rate.
type serveOpenSize struct {
	scale      float64
	shards     int
	rate       float64 // offered requests per second
	fetchShare float64
	fetchDocs  int // docIDs per fetch request
	k          int
	timeout    time.Duration // request deadline after its scheduled send
	limitMs    float64       // p99 latency limit of max_rate_qps
	probeN     int           // requests per max_rate_qps trial
}

func serveOpenSizes(tiny bool) serveOpenSize {
	s := serveOpenSize{scale: 0.3, shards: 4, rate: 2000, fetchShare: 0.25,
		fetchDocs: 5, k: 10, timeout: 10 * time.Millisecond, limitMs: 25, probeN: 1000}
	if tiny {
		s.scale, s.rate, s.probeN = 0.004, 200, 100
	}
	return s
}

// serveReq is one generated request with its send time relative to the
// start of the schedule.
type serveReq struct {
	at    time.Duration
	expr  string
	fetch []uint32
}

func (r *serveReq) key() string {
	if r.fetch == nil {
		return r.expr
	}
	b := []byte("fetch")
	for _, id := range r.fetch {
		b = strconv.AppendUint(append(b, ':'), uint64(id), 10)
	}
	return string(b)
}

// queryZipfS is the popularity exponent of whole queries in serve-open:
// the corpus generator's default term-popularity exponent, the one
// corpus.SampleZipfQueries draws cluster-hot's terms with.
const queryZipfS = 1.07

// serveRequests draws the open-loop schedule over a query pool:
// Poisson arrivals at rate; searches pick whole queries from the pool by
// Zipf(queryZipfS) popularity, so queries repeat; a fetch asks for the
// top hits of the latest search's answer (top(expr) returns them), and is
// a search instead when that answer is empty.
func serveRequests(pool []string, sz serveOpenSize, n int, seed int64, top func(expr string) []uint32) []serveReq {
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e))
	zipf := rand.NewZipf(rng, queryZipfS, 1, uint64(len(pool)-1))
	reqs := make([]serveReq, n)
	var at float64
	last := ""
	for i := range reqs {
		at += rng.ExpFloat64() / sz.rate
		reqs[i].at = time.Duration(at * 1e9)
		fetch := rng.Float64() < sz.fetchShare
		pick := pool[zipf.Uint64()]
		if ids := top(last); fetch && len(ids) > 0 {
			reqs[i].fetch = ids[:min(len(ids), sz.fetchDocs)]
			continue
		}
		reqs[i].expr = pick
		last = pick
	}
	return reqs
}

// docsDigest fingerprints fetched payloads.
func docsDigest(names, texts [][]byte) uint64 {
	h := fnv.New64a()
	for i := range names {
		h.Write(names[i])
		h.Write([]byte{0})
		h.Write(texts[i])
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// serveRef holds the reference answer digest of every distinct request.
type serveRef map[string]uint64

// serveReference draws the query pool and the schedule, and answers
// every pool query with the software engine and every distinct fetch with
// the single-device FetchDocs. The pool is cluster-hot's request list for
// the same seed and length (poolN queries) without its repeats, so both
// workloads serve one query population.
func serveReference(c *corpus.Corpus, sz serveOpenSize, poolN, n int, seed int64) ([]string, []serveReq, serveRef, error) {
	queries := distinct(exprsOf(mixQueries(c, poolN, true, seed)))
	top := make(map[string][]uint32, len(queries))
	ref, err := referenceDigests(boss.CCNewsLike, sz.scale, queries, sz.k, top)
	if err != nil {
		return nil, nil, nil, err
	}
	reqs := serveRequests(queries, sz, n, seed, func(e string) []uint32 { return top[e] })
	out := serveRef(ref)
	var fetches [][]uint32
	for i := range reqs {
		if reqs[i].fetch != nil {
			if _, ok := out[reqs[i].key()]; !ok {
				out[reqs[i].key()] = 0
				fetches = append(fetches, reqs[i].fetch)
			}
		}
	}
	acc := boss.BuildSynthetic(boss.CCNewsLike, sz.scale).Accelerator(boss.AccelOptions{})
	for _, ids := range fetches {
		docs, _, err := acc.FetchDocs(ids)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("reference fetch %v: %w", ids, err)
		}
		var names, texts [][]byte
		for _, d := range docs {
			names = append(names, []byte(d.Name))
			texts = append(texts, []byte(d.Text))
		}
		out[(&serveReq{fetch: ids}).key()] = docsDigest(names, texts)
	}
	acc = nil
	runtime.GC()
	return queries, reqs, out, nil
}

// timedBackend wraps the cluster backend, as Serve builds it, and
// records each batch's execution span per request key (traced run).
type timedBackend struct {
	be *front.ClusterBackend
	tr *tracer

	mu    sync.Mutex
	n     int64
	spans map[string][]execSpan // by request key, in completion order
}

type execSpan struct{ start, end time.Time }

func (b *timedBackend) Shards() int { return b.be.Shards() }

func (b *timedBackend) ExecuteBatch(ctx context.Context, qs []pool.BatchQuery, out []front.Out) {
	start := time.Now()
	b.be.ExecuteBatch(ctx, qs, out)
	end := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	// Batches serve many requests, so each is a root span of its own.
	b.n++
	b.tr.add("pool.batch_exec", -b.n, 0, start, end, 0)
	for _, q := range qs {
		r := serveReq{expr: q.Expr}
		if len(q.FetchIDs) > 0 {
			r.fetch = q.FetchIDs
		}
		k := r.key()
		b.spans[k] = append(b.spans[k], execSpan{start, end})
	}
}

// execOf returns the execution time of the last batch that ran key and
// finished by done: the part of a request's latency spent executing
// rather than queued.
func (b *timedBackend) execOf(key string, done time.Time) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	sp := b.spans[key]
	i := sort.Search(len(sp), func(i int) bool { return sp[i].end.After(done) }) - 1
	if i < 0 {
		return 0
	}
	return sp[i].end.Sub(sp[i].start)
}

type serveDep struct {
	cl *pool.Cluster
	f  *front.Front
	tb *timedBackend
}

func newServeDep(spec corpus.Spec, sz serveOpenSize, tr *tracer) (serveDep, error) {
	cl, err := newCluster(spec, sz.shards)
	if err != nil {
		return serveDep{}, err
	}
	// The fetch path builds its document stores lazily; forcing that here
	// charges it to set-up instead of the first fetches.
	if err := cl.EnsureDocs(); err != nil {
		return serveDep{}, err
	}
	var be front.Backend = front.NewClusterBackend(cl)
	var tb *timedBackend
	if tr != nil {
		tb = &timedBackend{be: front.NewClusterBackend(cl), tr: tr, spans: map[string][]execSpan{}}
		be = tb
	}
	f, err := front.New(front.Config{}, be)
	return serveDep{cl, f, tb}, err
}

// outcome is what one served request came back with.
type outcome struct {
	lat, late time.Duration // from the scheduled send
	done      time.Time
	submit    time.Duration // Submit's own duration
	ok        bool          // answered and verified
	good      bool          // ok, complete and within its deadline
	refused   bool          // shed or rejected at admission
	wrong     bool          // answered with a result that does not match
	err       error
}

// openLoop sends reqs on schedule from one generator goroutine and
// waits for every answer. It returns the outcomes, the wall time from
// the first scheduled send to the last answer, and the CPU time.
func openLoop(f *front.Front, reqs []serveReq, ref serveRef, sz serveOpenSize, tr *tracer) ([]outcome, time.Duration, time.Duration) {
	outs := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	t0 := time.Now()
	for i := range reqs {
		r := &reqs[i]
		due := t0.Add(r.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o := &outs[i]
		req := int64(i)
		root := tr.begin("request", req, 0)
		sub := tr.begin("front.submit", req, root.id)
		subStart := time.Now()
		o.late = subStart.Sub(due)
		t, err := f.Submit(front.Request{Expr: r.expr, FetchIDs: r.fetch, K: sz.k, Deadline: due.Add(sz.timeout)})
		o.submit = time.Since(subStart)
		tr.end(sub)
		if err != nil {
			o.lat = time.Since(due)
			o.refused = errors.Is(err, front.ErrOverloaded) || errors.Is(err, front.ErrShed)
			o.wrong = !o.refused
			tr.end(root)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := tr.begin("front.wait", req, root.id)
			res := t.Wait(context.Background())
			done := time.Now()
			tr.end(w)
			tr.end(root)
			o.lat = done.Sub(due)
			o.done = done
			switch {
			case res.Err != nil:
				o.wrong = true
				o.err = res.Err
			case res.Degraded != 0:
				// A partial answer is not ok, but not wrong either.
			default:
				o.ok = verifyServed(r, &res, ref)
				o.wrong = !o.ok
			}
			o.good = o.ok && !done.After(due.Add(sz.timeout))
		}()
	}
	wg.Wait()
	return outs, time.Since(t0), cpuTime() - cpu0
}

func verifyServed(r *serveReq, res *front.Result, ref serveRef) bool {
	if r.fetch == nil {
		return digest(entryIDs(res.TopK)) == ref[r.expr]
	}
	if len(res.Docs) != len(r.fetch) {
		return false
	}
	names := make([][]byte, len(res.Docs))
	texts := make([][]byte, len(res.Docs))
	for i, d := range res.Docs {
		if len(d.Fields) != 2 || d.DocID != r.fetch[i] {
			return false
		}
		names[i], texts[i] = d.Fields[0], d.Fields[1]
	}
	return docsDigest(names, texts) == ref[r.key()]
}

func runServeOpen(cfg config, tr *tracer) (*result, error) {
	sz := serveOpenSizes(cfg.tiny)
	spec := corpus.CCNewsLike(sz.scale)
	n := int(sz.rate) * cfg.seconds
	res := newResult()
	clock := time.Now()

	poolN := clusterHotSizes(cfg.tiny).perSecond * cfg.seconds
	queries, reqs, ref, err := serveReference(corpus.Generate(spec), sz, poolN, n, cfg.seed)
	if err != nil {
		return nil, err
	}
	res.phase("reference", &clock)

	d, err := timedSetup(res, cfg, func() (serveDep, error) { return newServeDep(spec, sz, tr) },
		func(d serveDep) { d.f.Close() })
	if err != nil {
		return nil, err
	}
	res.phase("setup", &clock)
	defer d.f.Close()

	// Warm pass straight on the cluster: every pool query and every
	// distinct fetch once. It fills the cache, checks each pool answer,
	// and gives the modeled device work of the query population the
	// searches draw from, each query once: weighting by the Zipf draws
	// would let one popular query's cost swing the figure with the seed.
	// Fetch traffic is reported per fetch on its own.
	ctx := context.Background()
	var searches, fetches simSum
	for _, e := range queries {
		cr, err := d.cl.SearchCtx(ctx, e, sz.k)
		if err != nil || cr.Degraded != 0 || digest(entryIDs(cr.TopK)) != ref[e] {
			return nil, fmt.Errorf("warm %s: wrong answer (err=%v)", e, err)
		}
		searches.add(merged(cr.PerShard))
	}
	seen := make(map[string]bool)
	for i := range reqs {
		if r := &reqs[i]; r.fetch != nil && !seen[r.key()] {
			seen[r.key()] = true
			cr, err := d.cl.FetchBatch(ctx, r.fetch)
			if err != nil {
				return nil, fmt.Errorf("warm %s: %w", r.key(), err)
			}
			fetches.add(merged(cr.PerShard))
		}
	}
	simMetrics(res, &searches)
	res.layers["sim.device_bytes.ld_doc"] = fetches.perQuery(fetches.devBytes)
	res.exact["fetch_device_bytes"] = fetches.devBytes
	warmCache := d.cl.CacheStats()
	res.phase("warm", &clock)

	gc0 := readGC()
	fm0 := d.f.Metrics()
	outs, wall, cpu := openLoop(d.f, reqs, ref, sz, tr)
	gcMetrics(res, readGC().since(gc0))
	res.phase("timed", &clock)
	fm := d.f.Metrics()
	st := d.cl.CacheStats()

	var ok, good, wrong, refused int64
	var lat, late, submit []float64
	for i, o := range outs {
		if o.wrong && len(res.notes) < 5 {
			res.notes = append(res.notes, fmt.Sprintf("wrong answer to %s: err=%v", reqs[i].key(), o.err))
		}
		lat = append(lat, float64(o.lat)/1e6)
		late = append(late, float64(o.late)/1e6)
		submit = append(submit, float64(o.submit)/1e3)
		if o.ok {
			ok++
		}
		if o.good {
			good++
		}
		if o.wrong {
			wrong++
		}
		if o.refused {
			refused++
		}
	}
	res.attempted = int64(n)
	res.failed = wrong
	res.e2e["ok_ratio"] = float64(ok) / float64(n)
	res.layers["goodput_ratio"] = float64(good) / float64(n)
	res.e2e["qps"] = float64(int64(n)-refused) / wall.Seconds()
	res.e2e["p50_ms"] = median(append([]float64(nil), lat...))
	if n >= p99MinSamples {
		res.layers["p99_ms"] = quantile(lat, 0.99)
	}
	res.e2e["cpu_ms_per_req"] = float64(cpu) / 1e6 / float64(n)
	res.layers["gen.late_p99_ms"] = quantile(late, 0.99)
	res.layers["gen.late_max_ms"] = quantile(late, 1)
	// The generator fell behind its schedule when sends slipped by more
	// than a request's whole deadline budget.
	if res.layers["gen.late_p99_ms"] > float64(sz.timeout)/1e6 {
		res.valid = false
		res.notes = append(res.notes, "generator fell behind its schedule")
	}
	res.layers["front.submit_us"] = median(submit)
	sub := float64(fm.Submitted - fm0.Submitted)
	res.layers["front.batch_size"] = float64(fm.Executed-fm0.Executed) / math.Max(float64(fm.Batches-fm0.Batches), 1)
	res.layers["front.dedup_ratio"] = float64(fm.DedupHits-fm0.DedupHits) / sub
	res.layers["front.degraded_ratio"] = float64(fm.Degraded-fm0.Degraded) / sub
	res.layers["front.shed_ratio"] = float64(fm.ShedTokens+fm.RejectedFull-fm0.ShedTokens-fm0.RejectedFull) / sub
	res.layers["cache.posting_hit_ratio"] = ratio(st.PostingHits-warmCache.PostingHits, st.PostingHits-warmCache.PostingHits+st.PostingMisses-warmCache.PostingMisses)
	res.layers["cache.doc_hit_ratio"] = ratio(st.DocHits-warmCache.DocHits, st.DocHits-warmCache.DocHits+st.DocMisses-warmCache.DocMisses)
	res.layers["cache.evictions_per_query"] = float64(st.Evictions-warmCache.Evictions) / float64(n)
	res.layers["cache.bypasses"] = float64(st.Bypasses - warmCache.Bypasses)
	poolEvents(res, d.cl)
	var keys []string
	nfetch := 0
	for i := range reqs {
		if reqs[i].fetch != nil {
			nfetch++
		}
		keys = append(keys, reqs[i].key())
	}
	res.props["repeat_share"] = repeatShare(keys)
	res.props["fetch_share"] = float64(nfetch) / float64(n)
	res.props["dedup_share"] = res.layers["front.dedup_ratio"]
	res.props["offered_rate_qps"] = sz.rate
	res.props["query_pool"] = float64(len(queries))
	res.props["cache_budget_mib"] = float64(st.BudgetBytes) / (1 << 20)
	res.props["working_set_mib"] = float64(st.ResidentBytes) / (1 << 20) // nothing is evicted
	res.e2e["live_heap_mib"] = liveHeapMiB()
	if d.tb != nil {
		var wait, fetchUs []float64
		for i, o := range outs {
			if o.done.IsZero() {
				continue
			}
			exec := d.tb.execOf(reqs[i].key(), o.done)
			wait = append(wait, float64(max(o.lat-exec, 0))/1e6)
			if reqs[i].fetch != nil {
				fetchUs = append(fetchUs, float64(exec)/1e3/float64(len(reqs[i].fetch)))
			}
		}
		res.layers["front.queue_wait_ms"] = median(wait)
		res.layers["fetch.doc_us"] = median(fetchUs)
		res.layers["max_rate_qps"] = maxRate(d.f, reqs, ref, sz)
		res.phase("max_rate", &clock)
		var exprs []string
		var ids []uint32
		for i := range reqs {
			if reqs[i].fetch == nil {
				exprs = append(exprs, reqs[i].expr)
			} else {
				ids = append(ids, reqs[i].fetch...)
			}
		}
		decodeLayers(res, buildLayers(res, spec), exprs)
		docstoreLayer(res, spec, corpus.Generate(spec), ids)
		res.phase("layers", &clock)
	}
	runtime.KeepAlive(d)
	return res, nil
}

// maxRate bisects over absolute offered rates for the highest at which a
// probe of sz.probeN requests keeps p99 latency under sz.limitMs with no
// growing backlog and every request answered in full. The search starts
// from the workload's own fixed rate and stops at 2% resolution.
func maxRate(f *front.Front, reqs []serveReq, ref serveRef, sz serveOpenSize) float64 {
	probe := reqs[:min(sz.probeN, len(reqs))]
	meets := func(rate float64) bool {
		scaled := make([]serveReq, len(probe))
		for i, r := range probe {
			r.at = time.Duration(float64(r.at) * sz.rate / rate)
			scaled[i] = r
		}
		outs, _, _ := openLoop(f, scaled, ref, sz, nil)
		lat := make([]float64, len(outs))
		for i, o := range outs {
			if !o.ok {
				return false
			}
			lat[i] = float64(o.lat) / 1e6
		}
		tail := append([]float64(nil), lat[len(lat)*9/10:]...)
		return quantile(lat, 0.99) < sz.limitMs && median(tail) < sz.limitMs
	}
	lo, hi := sz.rate, sz.rate
	for meets(hi) && hi < 64*sz.rate {
		lo, hi = hi, hi*2
	}
	if lo == hi {
		return 0 // even the fixed rate misses the limit
	}
	for hi/lo > 1.02 {
		mid := math.Sqrt(lo * hi)
		if meets(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
