package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"boss/internal/mem"
	"boss/internal/perf"
	"boss/internal/sim"
)

// p99MinSamples is the sample count below which a run reports no p99:
// with fewer, fewer than ten samples lie beyond the 99th percentile.
const p99MinSamples = 1000

// quantile returns the q-quantile of xs by the nearest-rank rule. xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// msOf converts durations to float milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMiB collects garbage and returns the live heap in MiB. Two
// collections empty the sync.Pool victim caches too, which one leaves
// holding whatever the last collection moved there.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// gcSnapshot captures the GC counters a timed phase reports as deltas.
type gcSnapshot struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnapshot{cycles: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// since returns the collector's work between an earlier snapshot and g.
func (g gcSnapshot) since(g0 gcSnapshot) gcSnapshot {
	return gcSnapshot{cycles: g.cycles - g0.cycles, pauseNs: g.pauseNs - g0.pauseNs}
}

// simSum accumulates the modeled-device quantities over a request list:
// the device's 8-core SCM throughput (summed as seconds per query, so the
// list's throughput is N ÷ Σ 1/QPS) and its traffic. Requests may carry
// weights; a plain list weighs each 1.
type simSum struct {
	n          float64
	secPerQ    float64
	devBytes   float64
	latencyNs  float64
	cat        [mem.NumCategories]float64
	docsEval   float64
	blocksFet  float64
	blocksSkip float64
}

// add folds one request's merged device metrics in.
func (s *simSum) add(m *perf.Metrics) { s.addWeighted(m, 1) }

func (s *simSum) addWeighted(m *perf.Metrics, w float64) {
	s.n += w
	if q := m.Throughput(8, mem.SCM(), mem.DefaultLinkGBs); q > 0 {
		s.secPerQ += w / q
	}
	s.devBytes += w * float64(m.DeviceBytes())
	s.latencyNs += w * float64(m.Latency(mem.SCM())/sim.Nanosecond)
	for c := range m.Cat {
		s.cat[c] += w * float64(m.Cat[c])
	}
	s.docsEval += w * float64(m.DocsEvaluated)
	s.blocksFet += w * float64(m.BlocksFetched)
	s.blocksSkip += w * float64(m.BlocksSkipped)
}

func (s *simSum) qps() float64 {
	if s.secPerQ == 0 {
		return 0
	}
	return s.n / s.secPerQ
}

func (s *simSum) perQuery(v float64) float64 {
	if s.n == 0 {
		return 0
	}
	return v / s.n
}

// merged sums per-shard metrics into one record (nil entries skipped).
func merged(per []*perf.Metrics) *perf.Metrics {
	agg := perf.NewMetrics()
	for _, m := range per {
		if m != nil {
			agg.Merge(m)
		}
	}
	return agg
}

func ratio[T int64 | float64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
