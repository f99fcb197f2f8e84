package pool

import (
	"context"
	"reflect"
	"testing"

	"boss/internal/corpus"
	"boss/internal/mem"
	"boss/internal/query"
)

// runShard runs one pristine attempt of a search on replica 0 of shard
// si, outside the attempt loop: the reference the degraded-merge tests
// rebuild partial results from.
func (cl *Cluster) runShard(node *query.Node, dnf [][]string, si, k int) shardOut {
	return cl.runReplicaCtx(context.Background(), node, dnf, si, 0, k)
}

// TestResilienceEventLogBounded: a long fault-free run keeps each
// replica's retained event log within the ring while the per-kind
// counters stay exact — one attempt per (query, shard).
func TestResilienceEventLogBounded(t *testing.T) {
	const calls, shards = 20000, 4
	c := corpus.Generate(corpus.CCNewsLike(0.002))
	cl := mustCluster(t, DefaultConfig(), c, shards)
	ctx := context.Background()
	for i := 0; i < calls; i++ {
		if _, err := cl.SearchCtx(ctx, `"t0"`, 1); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	for si := 0; si < shards; si++ {
		if n := len(cl.Events(si)); n > eventRingCap {
			t.Fatalf("shard %d retains %d events, cap %d", si, n, eventRingCap)
		}
	}
	if got, want := cl.EventCount(EvAttempt), uint64(calls*shards); got != want {
		t.Fatalf("EvAttempt count = %d, want %d", got, want)
	}
	cl.ResetEvents()
	if n := cl.EventCount(EvAttempt); n != 0 || len(cl.Events(0)) != 0 {
		t.Fatalf("ResetEvents left %d counted and %d retained events", n, len(cl.Events(0)))
	}
}

// TestResilienceEventRingKeepsNewest: once the ring wraps, snapshots
// hold exactly the newest eventRingCap events, oldest first.
func TestResilienceEventRingKeepsNewest(t *testing.T) {
	s := &shardState{}
	const n = eventRingCap + eventRingCap/2 + 3
	for i := 0; i < n; i++ {
		s.record(EvAttempt, i, 0, nil)
	}
	evs := s.appendEvents(nil)
	if len(evs) != eventRingCap {
		t.Fatalf("retained %d events, want %d", len(evs), eventRingCap)
	}
	for i, ev := range evs {
		if want := n - eventRingCap + i; ev.Attempt != want {
			t.Fatalf("event %d has attempt %d, want %d", i, ev.Attempt, want)
		}
	}
	if s.counts[EvAttempt] != n {
		t.Fatalf("counted %d attempts, want %d", s.counts[EvAttempt], n)
	}
}

// TestSearchDegradesLikeSearchCtx: the context-free entry points share
// the executor's one failure semantics — a dead node degrades the query
// exactly as SearchCtx does instead of failing it.
func TestSearchDegradesLikeSearchCtx(t *testing.T) {
	c := corpus.Generate(corpus.CCNewsLike(0.004))
	plan := &mem.FaultPlan{Seed: 3, DeadDevices: []int{1}}
	fresh := func() *Cluster {
		cl := mustCluster(t, DefaultConfig(), c, 3)
		cl.SetFaultPlan(plan)
		return cl
	}
	const expr = `"t0" OR "t1"`
	want, err := fresh().SearchCtx(context.Background(), expr, 20)
	if err != nil {
		t.Fatalf("SearchCtx: %v", err)
	}
	if want.Degraded != 1<<1 {
		t.Fatalf("SearchCtx Degraded = %b, want node 1", want.Degraded)
	}
	check := func(name string, got *ClusterResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s errored on a partial outage: %v", name, err)
		}
		if got.Degraded != want.Degraded || !reflect.DeepEqual(got.ShardErrs, want.ShardErrs) {
			t.Fatalf("%s: Degraded=%b ShardErrs=%v, SearchCtx gave %b %v",
				name, got.Degraded, got.ShardErrs, want.Degraded, want.ShardErrs)
		}
		if !reflect.DeepEqual(got.TopK, want.TopK) {
			t.Fatalf("%s: partial ranking differs from SearchCtx", name)
		}
	}
	got, err := fresh().Search(expr, 20)
	check("Search", got, err)
	got, err = fresh().SearchSerial(expr, 20)
	check("SearchSerial", got, err)
	br := fresh().SearchBatch([]string{expr}, 20)
	check("SearchBatch", br.Results[0], br.Errs[0])
}
