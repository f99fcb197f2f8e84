package pool

import (
	"context"
	"errors"
	"sync"
	"time"

	"boss/internal/mem"
	"boss/internal/perf"
	"boss/internal/query"
	"boss/internal/topk"
)

// The cluster executor. Every cluster query — a search, a front-door
// batch entry, a document fetch — becomes one task: a per-shard work
// order that execShard, the single attempt loop, runs against each shard
// with breaker-aware replica selection, bounded retry with jittered
// backoff, and (searches only) hedged dispatch. Shard fan-out and query
// pipelining share one worker-pool helper (fanOut), and one degrade-aware
// merge (mergePartial) folds the shard outcomes: a failed shard degrades
// the query, and only a failure of every shard with work errors it.

// task is one query's per-shard work order.
type task struct {
	// node and dnf are a search's validated query and its shared DNF
	// (nil for sparse queries); k is the top-k depth.
	node *query.Node
	dnf  [][]string
	k    int
	// fetch, non-nil for a document fetch, routes the requested docIDs to
	// their owning shards.
	fetch *fetchPlan
	// mask is the front-door shard mask (0 = every shard participates).
	mask uint64
	// qkey is the stable query key the replica rotation hashes on.
	qkey uint64
}

// shardOut is one node's contribution to a fanned-out query.
type shardOut struct {
	m    *perf.Metrics
	topk []topk.Entry
	err  error
	// ri is the replica that produced the result; hedged/hedgeWin count
	// the backup attempts fired and adopted while producing it.
	ri       int
	hedged   int
	hedgeWin bool
	// idle marks a shard the task gave no work (a fetch requesting none
	// of its documents); idle shards never count toward an all-failed
	// query.
	idle bool
}

// fanOut calls run(i) for every i in [0, n) on at most width goroutines
// (inline on the calling goroutine when width is 1) and stops dispatching
// once ctx dies. It returns how many indexes were dispatched; no
// goroutine outlives the call, because the workers drain a channel that
// is closed before the final Wait.
func fanOut(ctx context.Context, n, width int, run func(i int)) int {
	if width <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return i
			}
			run(i)
		}
		return n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				run(i)
			}
		}()
	}
	dispatched := 0
dispatch:
	for ; dispatched < n; dispatched++ {
		select {
		case next <- dispatched:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	return dispatched
}

// execute runs one task against every shard and merges the outcomes.
// serial sweeps the shards on the calling goroutine (SearchSerial, and
// the batch paths, where queries occupy the workers); otherwise shards
// fan out Config.Workers wide. Results are identical either way: shard
// runs are independent and the merge folds them in shard order.
func (cl *Cluster) execute(ctx context.Context, t *task, serial bool) (*ClusterResult, error) {
	outs := make([]shardOut, len(cl.shards))
	width := 1
	if !serial {
		width = cl.workers(len(outs))
	}
	// fanOut skips shards only once ctx is dead, which the check below
	// reports for the whole query.
	fanOut(ctx, len(outs), width, func(si int) {
		switch {
		case t.fetch != nil && len(t.fetch.ids[si]) == 0:
			outs[si].idle = true
		case !maskHas(t.mask, si):
			outs[si].err = shedShardError(si)
		default:
			outs[si] = cl.execShard(ctx, t, si)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := cl.mergePartial(outs, t.k)
	if err == nil && t.fetch != nil {
		res.Docs = t.fetch.docs
	}
	return res, err
}

// execShard is the attempt loop every task runs on one shard:
// breaker-aware replica selection, bounded retry with jittered backoff,
// hedged dispatch for searches on replicated clusters, parent-context
// awareness. Event recording and error construction are outlined.
//
//boss:hotpath one call per (query, shard).
func (cl *Cluster) execShard(ctx context.Context, t *task, si int) shardOut {
	hedge := t.fetch == nil && cl.res.HedgeEnabled && len(cl.states[si]) > 1
	for attempt := 0; ; attempt++ {
		if cause := ctx.Err(); cause != nil {
			return shardOut{err: shardError(si, cause)} //boss:escape-ok cold cancellation error path
		}
		st, ri, ok := cl.pickReplica(si, t.qkey, attempt)
		if !ok {
			return shardOut{err: breakerError(si)} //boss:escape-ok cold breaker-open error path
		}
		recordAttempt(st, attempt)
		var out shardOut
		if hedge {
			out = cl.hedged(ctx, t, si, ri, attempt, st)
		} else {
			out = cl.attempt(ctx, t, si, ri)
			out.ri = ri
			cl.settle(st, out.err, attempt)
		}
		if out.err == nil || attempt >= cl.res.MaxRetries || !cl.retryableOn(out.err, si) || ctx.Err() != nil {
			return out
		}
		d := cl.res.backoffDelay(si, attempt)
		recordBackoff(st, attempt, d)
		if cl.sleepFn(ctx, d) != nil {
			return out // context died during backoff: report the last failure
		}
	}
}

// attempt issues one try of the task on replica ri of shard si.
func (cl *Cluster) attempt(ctx context.Context, t *task, si, ri int) shardOut {
	if t.fetch != nil {
		return cl.fetchAttempt(ctx, t.fetch, si, ri)
	}
	return cl.runFn(ctx, t.node, t.dnf, si, ri, t.k)
}

// settle records an attempt's adopted outcome against the replica that
// produced it (outlined from the attempt loop).
func (cl *Cluster) settle(st *shardState, err error, attempt int) {
	if err == nil {
		st.success()
		return
	}
	st.failure(attempt, cl.now(), cl.res.BreakerThreshold, err)
}

// hedged issues a search attempt on the primary replica and arms the
// hedge timer: if the primary has not answered at the cutoff, a backup
// attempt fires on the next healthy replica and the first result to
// arrive wins (a first arrival carrying an error waits for the other
// runner before giving up). The loser is cancelled, its outcome never
// reaches any breaker — only the adopted result settles its replica —
// and its claim on a half-open probe slot is released. Both runners
// deliver into cap-1 buffered channels, so a cancelled loser's goroutine
// always exits. Fetches are never hedged: a fetch attempt writes
// payloads into the caller's docs in place, and two racing attempts
// would tear those writes.
func (cl *Cluster) hedged(ctx context.Context, t *task, si, primary, attempt int, st *shardState) shardOut {
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	pch := make(chan shardOut, 1)
	go cl.hedgeRun(pctx, t, si, primary, pch)
	fire, stop := cl.timerFn(cl.res.HedgeCutoff)
	var pout shardOut
	select {
	case pout = <-pch: // primary answered before the cutoff: no hedge
		stop()
		pout.ri = primary
		cl.settle(st, pout.err, attempt)
		return pout
	case <-fire:
	}
	bst, bri, ok := cl.pickBackup(si, primary)
	if !ok {
		// Every other copy is sick: ride the primary to completion.
		pout = <-pch
		pout.ri = primary
		cl.settle(st, pout.err, attempt)
		return pout
	}
	recordHedge(bst, attempt)
	bctx, bcancel := context.WithCancel(ctx)
	defer bcancel()
	bch := make(chan shardOut, 1)
	go cl.hedgeRun(bctx, t, si, bri, bch)
	var bout shardOut
	var pdone bool
	select {
	case pout = <-pch:
		pdone = true
	case bout = <-bch:
	}
	if pdone && pout.err != nil {
		bout = <-bch // primary lost its own race; let the backup finish
		pdone = false
	} else if !pdone && bout.err != nil {
		pout = <-pch // backup failed first; fall back to the primary
		pdone = true
	}
	if pdone {
		bcancel()
		bst.abandon()
		pout.ri, pout.hedged = primary, 1
		cl.settle(st, pout.err, attempt)
		return pout
	}
	pcancel()
	st.abandon()
	bout.ri, bout.hedged, bout.hedgeWin = bri, 1, bout.err == nil
	cl.settle(bst, bout.err, attempt)
	return bout
}

// hedgeRun executes one replica attempt and delivers its result on a
// cap-1 buffered channel: the send never blocks, so a cancelled loser's
// goroutine always exits.
func (cl *Cluster) hedgeRun(ctx context.Context, t *task, si, ri int, ch chan<- shardOut) {
	ch <- cl.runFn(ctx, t.node, t.dnf, si, ri, t.k)
}

// recordAttempt / recordBackoff / recordHedge are outlined from the
// attempt loop so the hot path stays free of composite construction.
func recordAttempt(st *shardState, attempt int) {
	st.mu.Lock()
	st.record(EvAttempt, attempt, 0, nil)
	st.mu.Unlock()
}

func recordBackoff(st *shardState, attempt int, d time.Duration) {
	st.mu.Lock()
	st.record(EvBackoff, attempt, d, nil)
	st.mu.Unlock()
}

func recordHedge(st *shardState, attempt int) {
	st.mu.Lock()
	st.record(EvHedge, attempt, 0, nil)
	st.mu.Unlock()
}

// mergePartial folds per-shard outcomes into the root-merged ranking in
// ascending shard order, so the result is bit-identical however the
// shard runs were scheduled. Failed shards set their bit in Degraded and
// park their error in ShardErrs instead of failing the query; only when
// every shard with work failed does the query itself error. k <= 0 (a
// fetch) merges no ranking.
func (cl *Cluster) mergePartial(outs []shardOut, k int) (*ClusterResult, error) {
	res := &ClusterResult{PerShard: make([]*perf.Metrics, len(outs))}
	if cl.Replicas() > 1 {
		// Replica attribution is allocated only on replicated clusters so
		// single-copy serving pays nothing new.
		res.ServedBy = make([]int, len(outs))
	}
	var merged topk.Selector
	if k > 0 {
		merged = topk.NewHeap(k)
	}
	failed, idle := 0, 0
	var firstErr error
	for si, out := range outs {
		res.Hedged += out.hedged
		if out.hedgeWin {
			res.HedgeWins++
		}
		if res.ServedBy != nil {
			if out.err != nil || out.m == nil {
				res.ServedBy[si] = -1
			} else {
				res.ServedBy[si] = out.ri
			}
		}
		if out.idle {
			idle++
		}
		if out.err != nil {
			failed++
			if firstErr == nil {
				firstErr = out.err
			}
			if si < 64 {
				res.Degraded |= 1 << uint(si)
			}
			if res.ShardErrs == nil {
				res.ShardErrs = make([]error, len(outs))
			}
			res.ShardErrs[si] = out.err
			continue
		}
		if out.m == nil {
			continue
		}
		res.PerShard[si] = out.m
		res.LinkBytes += out.m.HostBytes
		for _, e := range out.topk {
			merged.Insert(e.DocID+cl.offsets[si], e.Score)
		}
	}
	if failed > 0 && failed == len(outs)-idle {
		return nil, firstErr
	}
	if merged != nil {
		res.TopK = merged.Results()
	}
	return res, nil
}

// search validates one expression and runs it through the executor.
func (cl *Cluster) search(ctx context.Context, expr string, k int, mask uint64, serial bool) (*ClusterResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	node, dnf, err := cl.prepare(expr)
	if err != nil {
		return nil, err
	}
	return cl.execute(ctx, &task{node: node, dnf: dnf, k: k, mask: mask, qkey: mem.StableKey(expr)}, serial)
}

// Search fans a query out to every node and merges the local top-k lists
// (SearchCtx without a deadline). Shards run concurrently on a bounded
// worker pool (Config.Workers, default GOMAXPROCS).
//
//boss:ctx-root context-free entry point: the caller set no deadline.
func (cl *Cluster) Search(expr string, k int) (*ClusterResult, error) {
	return cl.search(context.Background(), expr, k, 0, false)
}

// SearchSerial is Search visiting the shards one at a time on the calling
// goroutine: the reference the parallel fan-out is tested against, and
// the baseline the wall-clock benchmarks compare to.
//
//boss:ctx-root context-free entry point: the caller set no deadline.
func (cl *Cluster) SearchSerial(expr string, k int) (*ClusterResult, error) {
	return cl.search(context.Background(), expr, k, 0, true)
}

// SearchCtx fans a query out under the caller's context with deadlines,
// retries, circuit breaking, and graceful degradation: surviving shards'
// top-k merge into a partial result whose Degraded mask and ShardErrs
// name the missing shards. The query errors only when it is invalid, the
// context dies, or every shard fails.
func (cl *Cluster) SearchCtx(ctx context.Context, expr string, k int) (*ClusterResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return cl.search(ctx, expr, k, 0, false)
}

// BatchResult is the outcome of a pipelined query batch.
type BatchResult struct {
	// Results holds one ClusterResult per input query, in input order; nil
	// where the matching Errs entry is non-nil.
	Results []*ClusterResult
	// Errs holds one entry per input query (nil for successes).
	Errs []error
	// Err is the first error in input order (remaining queries still run).
	Err error
}

// batch pipelines n queries on the worker pool: each worker owns one
// in-flight query and sweeps it across all shards, so different queries
// occupy different nodes concurrently. A dead context fails the queries
// not yet dispatched.
func (cl *Cluster) batch(ctx context.Context, n int, run func(qi int) (*ClusterResult, error)) *BatchResult {
	br := &BatchResult{
		Results: make([]*ClusterResult, n),
		Errs:    make([]error, n),
	}
	// Workers write only their own indices, so no lock is needed.
	done := fanOut(ctx, n, cl.workers(n), func(qi int) {
		br.Results[qi], br.Errs[qi] = run(qi)
	})
	for qi := done; qi < n; qi++ {
		br.Errs[qi] = ctx.Err()
	}
	for _, err := range br.Errs {
		if err != nil {
			br.Err = err
			break
		}
	}
	return br
}

// SearchBatch is SearchBatchCtx without a deadline.
//
//boss:ctx-root context-free entry point: the caller set no deadline.
func (cl *Cluster) SearchBatch(exprs []string, k int) *BatchResult {
	return cl.SearchBatchCtx(context.Background(), exprs, k)
}

// SearchBatchCtx pipelines a batch of queries; per-query results match
// SearchCtx, so a shard failure degrades that query's result instead of
// failing it. A dead context fails the remaining queries promptly; no
// goroutines outlive the call.
func (cl *Cluster) SearchBatchCtx(ctx context.Context, exprs []string, k int) *BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	return cl.batch(ctx, len(exprs), func(qi int) (*ClusterResult, error) {
		return cl.search(ctx, exprs[qi], k, 0, true)
	})
}

// BatchQuery is one query of a heterogeneous batch: either a search
// (Expr) or a document fetch (FetchIDs), with an optional front-door
// shard mask. Carrying both in one query is an error.
type BatchQuery struct {
	// Expr is the boolean query expression (search queries).
	Expr string
	// K is the query's top-k depth (<= 0 uses the cluster config's K).
	K int
	// ShardMask, when non-zero, restricts execution to the shards whose
	// bits are set; excluded shards appear in the result's Degraded mask
	// with ErrShardShed. Zero executes every shard.
	ShardMask uint64
	// FetchIDs, when non-empty, makes this query a document fetch: the
	// result's Docs holds the payloads of these global docIDs, in order.
	// Mutually exclusive with Expr.
	FetchIDs []uint32
}

// errExprAndFetch rejects a BatchQuery that is both a search and a fetch.
var errExprAndFetch = errors.New("pool: BatchQuery carries both Expr and FetchIDs")

// SearchBatchQueries is SearchBatchCtx for heterogeneous queries: per-query
// top-k depths, front-door shard masks, and document fetches. It is the
// execution surface the front-door serving tier flushes its coalesced
// batches into.
func (cl *Cluster) SearchBatchQueries(ctx context.Context, qs []BatchQuery) *BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	return cl.batch(ctx, len(qs), func(qi int) (*ClusterResult, error) {
		q := qs[qi]
		if len(q.FetchIDs) > 0 {
			if q.Expr != "" {
				return nil, errExprAndFetch
			}
			return cl.fetch(ctx, q.FetchIDs, q.ShardMask, true)
		}
		k := q.K
		if k <= 0 {
			k = cl.cfg.K
		}
		return cl.search(ctx, q.Expr, k, q.ShardMask, true)
	})
}
