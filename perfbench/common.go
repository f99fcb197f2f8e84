package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"boss"
	"boss/internal/corpus"
	"boss/internal/topk"
)

// setupReps is how many times a run builds its deployment (test-sized
// runs: once). Each build is followed by one run of the reference task.
const setupReps = 11

// closedClients is the closed loops' client count. One client leaves the
// second CPU to the query fan-out and the runtime; with two, every
// cycle another tenant of the machine takes shows up in the timings,
// and their spread across runs doubled.
const closedClients = 1

// refTaskSeconds is what one run of referenceTask takes on the machine
// the benchmark was tuned on (two CPUs, Go 1.24, at its usual speed).
// setup_s is quoted at that speed.
const refTaskSeconds = 0.2

// timedSetup builds a deployment setupReps times, keeps the last one and
// reports setup_s: the median build time scaled by refTaskSeconds over
// the median time of the reference task run right after each build. On
// a shared machine whose speed drifts by a third within minutes, the
// scale cancels the drift that the builds and the reference task share,
// which the raw build time (the per-layer setup.wall_s) cannot;
// work added to or removed from the builds moves setup_s in proportion.
// Each earlier build is released with drop (when non-nil) before the
// next starts, so only one is ever live.
func timedSetup[T any](res *result, cfg config, build func() (T, error), drop func(T)) (T, error) {
	reps := setupReps
	if cfg.tiny {
		reps = 1
	}
	var dep T
	var err error
	var secs, ref []float64
	for r := 0; r < reps; r++ {
		if r > 0 && drop != nil {
			drop(dep)
		}
		var zero T
		dep = zero
		runtime.GC()
		start := time.Now()
		dep, err = build()
		if err != nil {
			return dep, err
		}
		secs = append(secs, time.Since(start).Seconds())
		runtime.GC()
		start = time.Now()
		referenceTask()
		ref = append(ref, time.Since(start).Seconds())
	}
	wall, refMed := median(secs), median(ref)
	res.e2e["setup_s"] = wall * refTaskSeconds / refMed
	res.layers["setup.wall_s"] = wall
	res.props["reference_task_s"] = refMed
	return dep, nil
}

// refSink keeps the reference task's results observable.
var refSink int

// referenceTask is fixed work owned by the benchmark, shaped like an
// index build on one goroutine: hash-map counting, growing many small
// lists, sorting and varint-encoding deltas. It uses nothing from the
// program under test, so a change to the program never moves it; only
// the machine's speed does.
func referenceTask() {
	x := uint32(2463534242)
	next := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	counts := make(map[uint32]uint32)
	for i := 0; i < 300000; i++ {
		counts[next()%1000000] += uint32(i)
	}
	lists := make([][]uint32, 4096)
	for i := 0; i < 1000000; i++ {
		k := next() % 4096
		lists[k] = append(lists[k], uint32(i))
	}
	xs := make([]uint32, 0, 16)
	for i := 0; i < 600000; i++ {
		xs = append(xs, next())
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	var buf []byte
	prev := uint32(0)
	for _, v := range xs {
		buf = binary.AppendUvarint(buf, uint64(v-prev))
		prev = v
	}
	refSink += len(counts) + len(buf) + len(lists[7])
}

// phase records the wall time since *start under name and restarts it.
func (r *result) phase(name string, start *time.Time) {
	now := time.Now()
	r.phases[name] = now.Sub(*start).Seconds()
	*start = now
}

// digest fingerprints a ranking by its docIDs in rank order.
func digest(ids []uint32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, id := range ids {
		b[0], b[1], b[2], b[3] = byte(id), byte(id>>8), byte(id>>16), byte(id>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

func hitIDs(hits []boss.Hit) []uint32 {
	ids := make([]uint32, len(hits))
	for i, h := range hits {
		ids[i] = h.DocID
	}
	return ids
}

func entryIDs(es []topk.Entry) []uint32 {
	ids := make([]uint32, len(es))
	for i, e := range es {
		ids[i] = e.DocID
	}
	return ids
}

// referenceDigests answers every distinct expression with the software
// engine (boss.Index.Search) on a separately built index of the same
// synthetic spec, keeping one digest per expression. top, when non-nil,
// also receives each answer's first docIDs (serve-open builds its fetch
// requests from them). The reference index is dropped before returning,
// so it never inflates the run's live heap.
func referenceDigests(kind boss.SyntheticKind, scale float64, exprs []string, k int, top map[string][]uint32) (map[string]uint64, error) {
	ref := boss.BuildSynthetic(kind, scale)
	uniq := distinct(exprs)
	out := make(map[string]uint64, len(uniq))
	for i, it := range ref.SearchBatch(uniq, k) {
		if it.Err != nil {
			return nil, fmt.Errorf("reference %s: %w", uniq[i], it.Err)
		}
		ids := hitIDs(it.Hits)
		out[uniq[i]] = digest(ids)
		if top != nil {
			top[uniq[i]] = ids
		}
	}
	ref = nil
	runtime.GC()
	return out, nil
}

// mixQueries draws n queries of types Q1–Q6 in equal shares and shuffles
// them. zipf selects corpus-popularity term ranks; otherwise the paper's
// log-uniform TREC-like ranks.
func mixQueries(c *corpus.Corpus, n int, zipf bool, seed int64) []corpus.Query {
	types := corpus.AllQueryTypes()
	out := make([]corpus.Query, 0, n)
	for i, t := range types {
		per := n / len(types)
		if i < n%len(types) {
			per++
		}
		if zipf {
			out = append(out, corpus.SampleZipfQueries(c, t, per, 0, seed)...)
		} else {
			out = append(out, corpus.SampleQueries(c, t, per, seed)...)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// exprsOf returns the queries' expressions.
func exprsOf(qs []corpus.Query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.Expr
	}
	return out
}

// distinct returns the expressions in first-seen order without repeats.
func distinct(exprs []string) []string {
	seen := make(map[string]bool, len(exprs))
	var out []string
	for _, e := range exprs {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// repeatShare is the share of requests whose whole query appeared earlier
// in the list.
func repeatShare(exprs []string) float64 {
	return 1 - float64(len(distinct(exprs)))/float64(len(exprs))
}

// timedPasses is how many times the timed phase serves the request list.
// Each reported timing is the median over passes, so a burst of
// interference from outside the process moves at most one pass.
const timedPasses = 3

// passes holds the timings of a timed phase: per pass, its wall time,
// process CPU time and every request's latency, and the garbage
// collector's work over the whole phase.
type passes struct {
	wall, cpu []time.Duration
	lat       [][]time.Duration
	gc        gcSnapshot
}

func newPasses(p, n int) *passes {
	ps := &passes{wall: make([]time.Duration, p), cpu: make([]time.Duration, p), lat: make([][]time.Duration, p)}
	for j := range ps.lat {
		ps.lat[j] = make([]time.Duration, n)
	}
	return ps
}

// closedLoop serves requests [0, n) timedPasses times on closedClients
// clients, each sending its next request only after the previous one
// completed. do(pass, i) serves request i and returns its latency.
func closedLoop(n int, do func(pass, i int) time.Duration) *passes {
	ps := newPasses(timedPasses, n)
	gc0 := readGC()
	for j := 0; j < timedPasses; j++ {
		var next atomic.Int64
		var wg sync.WaitGroup
		cpu0 := cpuTime()
		start := time.Now()
		for w := 0; w < closedClients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= n {
						return
					}
					ps.lat[j][i] = do(j, i)
				}
			}()
		}
		wg.Wait()
		ps.wall[j] = time.Since(start)
		ps.cpu[j] = cpuTime() - cpu0
	}
	ps.gc = readGC().since(gc0)
	return ps
}

// latencyMetrics fills the timing metrics of a timed phase: each is the
// median over passes of that pass's figure, except p99_ms, which pools
// every sample. Call it before any work outside the timed phase, as it
// also reads the live heap.
func latencyMetrics(res *result, ps *passes) {
	var qps, p50, cpu, all []float64
	for j := range ps.wall {
		n := float64(len(ps.lat[j]))
		ms := msOf(ps.lat[j])
		qps = append(qps, n/ps.wall[j].Seconds())
		p50 = append(p50, median(ms))
		cpu = append(cpu, float64(ps.cpu[j])/1e6/n)
		all = append(all, ms...)
	}
	res.passQPS = append([]float64(nil), qps...)
	res.e2e["qps"] = median(qps)
	res.e2e["p50_ms"] = median(p50)
	res.e2e["cpu_ms_per_req"] = median(cpu)
	if len(all) >= p99MinSamples {
		res.layers["p99_ms"] = quantile(all, 0.99)
	}
	gcMetrics(res, ps.gc)
	res.e2e["live_heap_mib"] = liveHeapMiB()
}

// gcMetrics reports the garbage collector's work over a timed phase.
func gcMetrics(res *result, gc gcSnapshot) {
	res.layers["runtime.gc_cycles"] = float64(gc.cycles)
	res.layers["runtime.gc_pause_ms"] = float64(gc.pauseNs) / 1e6
}

// simMetrics reports the modeled-device totals of a request list.
func simMetrics(res *result, s *simSum) {
	res.e2e["sim_qps"] = s.qps()
	res.e2e["device_bytes_per_query"] = s.perQuery(s.devBytes)
	res.layers["sim.latency_us_per_query"] = s.perQuery(s.latencyNs) / 1e3
	for c, v := range s.cat {
		res.layers["sim.device_bytes."+catName(c)] = s.perQuery(v)
	}
	res.layers["core.docs_evaluated_per_query"] = s.perQuery(s.docsEval)
	res.layers["core.blocks_fetched_per_query"] = s.perQuery(s.blocksFet)
	res.layers["core.blocks_skipped_ratio"] = ratio(s.blocksSkip, s.blocksFet+s.blocksSkip)
	res.exact["requests"] = s.n
	res.exact["sim_qps"] = s.qps()
	res.exact["device_bytes"] = s.devBytes
	res.exact["docs_evaluated"] = s.docsEval
	res.exact["blocks_fetched"] = s.blocksFet
	res.exact["blocks_skipped"] = s.blocksSkip
}

// closedResult records a closed loop's request accounting: every
// verified answer is ok, and with no deadlines every ok answer is good.
func closedResult(res *result, attempted, failed int64) {
	res.attempted = attempted
	res.failed += failed
	res.e2e["ok_ratio"] = float64(attempted-failed) / float64(attempted)
	res.layers["goodput_ratio"] = res.e2e["ok_ratio"]
}
