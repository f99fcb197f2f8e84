package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"boss/internal/core"
	"boss/internal/mem"
	"boss/internal/query"
)

// Resilience configures the cluster's fault-handling policy: per-shard
// deadlines, bounded retry with jittered exponential backoff, and a
// per-shard circuit breaker. The zero value is normalized to
// DefaultResilience by NewCluster.
type Resilience struct {
	// ShardTimeout bounds one shard attempt's wall-clock time
	// (0 disables the per-attempt deadline; the parent context still
	// applies).
	ShardTimeout time.Duration
	// MaxRetries is how many times a retryable shard failure is retried
	// (so a shard sees at most MaxRetries+1 attempts). Negative disables
	// retry entirely.
	MaxRetries int
	// BackoffBase is the pre-jitter delay before the first retry; it
	// doubles per attempt up to BackoffMax.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff.
	BackoffMax time.Duration
	// Seed drives backoff jitter. Delays are a pure function of
	// (Seed, shard, attempt), so a replayed plan backs off identically.
	Seed int64
	// BreakerThreshold is the consecutive-failure count that opens a
	// shard's circuit breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects attempts
	// before letting a half-open probe through.
	BreakerCooldown time.Duration
	// HedgeEnabled arms hedged requests on replicated clusters
	// (Config.Replicas > 1): when the primary replica has not answered
	// HedgeCutoff after dispatch, a backup attempt fires on the next
	// healthy replica and the first result to arrive wins; the loser is
	// cancelled and never counts against any breaker. Requires a
	// positive HedgeCutoff (NewCluster rejects the combination
	// otherwise) and does nothing on single-copy shards.
	HedgeEnabled bool
	// HedgeCutoff is the backup-fire latency. Set it near the serving
	// path's p99 so only tail stragglers pay the duplicated work.
	HedgeCutoff time.Duration
}

// DefaultResilience is the serving default: two retries with 1–16 ms
// jittered backoff, a breaker that opens after 5 consecutive failures
// and probes again after 50 ms, and no per-attempt timeout (simulated
// devices answer in microseconds of host time; a wall-clock deadline
// would only add CI flakiness).
func DefaultResilience() Resilience {
	return Resilience{
		MaxRetries:       2,
		BackoffBase:      time.Millisecond,
		BackoffMax:       16 * time.Millisecond,
		BreakerThreshold: 5,
		BreakerCooldown:  50 * time.Millisecond,
	}
}

// normalize fills zero fields with their defaults.
func (r Resilience) normalize() Resilience {
	def := DefaultResilience()
	if r.BackoffBase <= 0 {
		r.BackoffBase = def.BackoffBase
	}
	if r.BackoffMax <= 0 {
		r.BackoffMax = def.BackoffMax
	}
	if r.BreakerThreshold <= 0 {
		r.BreakerThreshold = def.BreakerThreshold
	}
	if r.BreakerCooldown <= 0 {
		r.BreakerCooldown = def.BreakerCooldown
	}
	return r
}

// ErrShardUnavailable reports that a shard's circuit breaker rejected
// the attempt without issuing it.
var ErrShardUnavailable = errors.New("pool: shard unavailable (breaker open)")

// ErrShardShed reports that a shard was excluded from a query by the
// front-door serving tier's degradation mask rather than by a fault: the
// query's result is a deliberate partial-shard answer. The shard's bit is
// set in ClusterResult.Degraded exactly like a failed shard's, but the
// breaker and retry machinery never engage.
var ErrShardShed = errors.New("pool: shard shed (front-door degradation)")

// EventKind labels one entry in a shard's resilience event log.
type EventKind uint8

const (
	EvAttempt EventKind = iota
	EvFailure
	EvBackoff
	EvBreakerOpen
	EvBreakerHalfOpen
	EvBreakerClose
	EvBreakerReject
	// EvHedge marks a hedged backup attempt fired on this replica after
	// the primary missed the cutoff.
	EvHedge

	numEventKinds
)

func (k EventKind) String() string {
	switch k {
	case EvAttempt:
		return "attempt"
	case EvFailure:
		return "failure"
	case EvBackoff:
		return "backoff"
	case EvBreakerOpen:
		return "breaker-open"
	case EvBreakerHalfOpen:
		return "breaker-half-open"
	case EvBreakerClose:
		return "breaker-close"
	case EvBreakerReject:
		return "breaker-reject"
	case EvHedge:
		return "hedge"
	}
	return "unknown"
}

// Event is one retry/breaker transition on one shard replica. The
// per-replica sequence is deterministic given a fault plan and a query
// order.
type Event struct {
	Shard   int
	Replica int
	Kind    EventKind
	Attempt int
	Backoff time.Duration
	Err     error
}

// breaker states.
const (
	brClosed = iota
	brOpen
	brHalfOpen
)

// eventRingCap bounds each shard replica's retained event log: the
// newest eventRingCap events are kept and older ones overwritten, while
// the per-kind counters stay exact past the ring. Large enough to hold
// every test scenario's whole log.
const eventRingCap = 1024

// shardState is one shard replica's breaker plus its resilience event
// log, under one mutex so log order matches breaker-transition order.
type shardState struct {
	si, ri   int // owning shard and replica, stamped on every event
	mu       sync.Mutex
	state    int
	fails    int
	openedAt time.Time
	probing  bool
	// events is the log ring, grown up to eventRingCap; once full, next
	// indexes the oldest entry (the next one overwritten).
	events []Event
	next   int
	counts [numEventKinds]uint64
}

// record logs an event while holding s.mu.
func (s *shardState) record(kind EventKind, attempt int, backoff time.Duration, err error) {
	ev := Event{Shard: s.si, Replica: s.ri, Kind: kind, Attempt: attempt, Backoff: backoff, Err: err}
	if len(s.events) < eventRingCap {
		s.events = append(s.events, ev)
	} else {
		s.events[s.next] = ev
		s.next = (s.next + 1) % eventRingCap
	}
	s.counts[kind]++
}

// appendEvents appends the retained log, oldest first, to dst.
func (s *shardState) appendEvents(dst []Event) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(append(dst, s.events[s.next:]...), s.events[:s.next]...)
}

// allow reports whether an attempt may be issued, applying the
// open → half-open transition after the cooldown.
func (s *shardState) allow(now time.Time, cooldown time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case brClosed:
		return true
	case brOpen:
		if now.Sub(s.openedAt) < cooldown {
			s.record(EvBreakerReject, 0, 0, nil)
			return false
		}
		s.state = brHalfOpen
		s.probing = true
		s.record(EvBreakerHalfOpen, 0, 0, nil)
		return true
	default: // half-open: one probe in flight at a time
		if s.probing {
			s.record(EvBreakerReject, 0, 0, nil)
			return false
		}
		s.probing = true
		return true
	}
}

// success closes the breaker.
func (s *shardState) success() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != brClosed {
		s.record(EvBreakerClose, 0, 0, nil)
	}
	s.state = brClosed
	s.fails = 0
	s.probing = false
}

// failure records a failed attempt and opens the breaker when the
// consecutive-failure threshold is reached (immediately in half-open).
func (s *shardState) failure(attempt int, now time.Time, threshold int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.record(EvFailure, attempt, 0, err)
	if s.state == brHalfOpen {
		s.state = brOpen
		s.openedAt = now
		s.probing = false
		s.record(EvBreakerOpen, attempt, 0, nil)
		return
	}
	s.fails++
	if s.state == brClosed && s.fails >= threshold {
		s.state = brOpen
		s.openedAt = now
		s.record(EvBreakerOpen, attempt, 0, nil)
	}
}

// abandon releases a hedge loser's claim on the breaker without
// recording an outcome: losers never count against breakers, but a
// half-open probe slot the loser claimed at selection time must be
// freed or the replica's breaker would wedge half-open forever.
func (s *shardState) abandon() {
	s.mu.Lock()
	s.probing = false
	s.mu.Unlock()
}

// Events snapshots one shard's retained resilience event log (the
// newest eventRingCap events per replica): every replica's events
// concatenated in replica order, identical to the lone replica's log on
// single-copy clusters. ReplicaEvents narrows to one copy; EventCount
// counts past the ring.
func (cl *Cluster) Events(si int) []Event {
	var out []Event
	for _, s := range cl.states[si] {
		out = s.appendEvents(out)
	}
	return out
}

// ReplicaEvents snapshots one shard replica's retained event log.
func (cl *Cluster) ReplicaEvents(si, ri int) []Event {
	return cl.states[si][ri].appendEvents(nil)
}

// EventCount reports how many events of the given kind every shard
// replica has recorded since construction or the last ResetEvents,
// including events the bounded logs no longer retain.
func (cl *Cluster) EventCount(kind EventKind) uint64 {
	var n uint64
	for _, reps := range cl.states {
		for _, s := range reps {
			s.mu.Lock()
			n += s.counts[kind]
			s.mu.Unlock()
		}
	}
	return n
}

// ResetEvents clears every replica's event log and counters
// (test/benchmark setup).
func (cl *Cluster) ResetEvents() {
	for _, reps := range cl.states {
		for _, s := range reps {
			s.mu.Lock()
			s.events, s.next, s.counts = nil, 0, [numEventKinds]uint64{}
			s.mu.Unlock()
		}
	}
}

// initResilience wires the cluster's resilience machinery; called from
// NewCluster and Fresh.
func (cl *Cluster) initResilience(r Resilience) {
	cl.res = r.normalize()
	cl.states = make([][]*shardState, len(cl.shards))
	for si := range cl.states {
		reps := make([]*shardState, cl.Replicas())
		for ri := range reps {
			reps[ri] = &shardState{si: si, ri: ri}
		}
		cl.states[si] = reps
	}
	cl.now = time.Now
	cl.sleepFn = sleepCtx
	cl.timerFn = hedgeTimer
	cl.runFn = cl.runReplicaCtx
}

// hedgeTimer arms the production hedge-cutoff timer.
//
//boss:wallclock hedging claws back wall-clock tail latency by design.
func hedgeTimer(d time.Duration) (<-chan time.Time, func() bool) {
	t := time.NewTimer(d)
	return t.C, t.Stop
}

// sleepCtx waits d or until the context is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoffDelay computes the jittered exponential backoff before retry
// `attempt` (0-based). It is a pure function of (seed, shard, attempt):
// replays back off identically, and no two shards share a jitter stream.
//
//boss:hotpath one call per retried shard attempt.
func (r Resilience) backoffDelay(shard, attempt int) time.Duration {
	d := r.BackoffBase
	for i := 0; i < attempt && d < r.BackoffMax; i++ {
		d *= 2
	}
	if d > r.BackoffMax {
		d = r.BackoffMax
	}
	// Jitter in [d/2, d): splitmix64 over the decision coordinates.
	h := splitmix64(uint64(r.Seed) ^ (uint64(shard)+1)*0x9e3779b97f4a7c15 + uint64(attempt)*0xbf58476d1ce4e5b9)
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(h%uint64(half))
}

// splitmix64 is the standard 64-bit finalizer (same construction the
// fault injector uses; duplicated here because mem keeps its unexported).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SetFaultPlan applies a fault plan across the cluster: replica ri of
// shard si plays the role of device si*Replicas+ri (with single-copy
// shards that is device si, the historical layout, so existing plans
// keep their meaning). Replicas are independent fault domains — each
// draws from its own injector stream, so one copy's media errors never
// shadow another's. A nil or empty plan restores pristine shards. Not
// safe concurrently with queries; meant for setup time.
func (cl *Cluster) SetFaultPlan(plan *mem.FaultPlan) {
	cl.faultPlan = plan
	for si, reps := range cl.accs {
		for ri, acc := range reps {
			acc.SetFault(plan.InjectorFor(cl.ReplicaDevice(si, ri)))
		}
	}
	// Fetch engines are built lazily; wire the ones that exist and retain
	// the plan so EnsureDocs wires the rest at build time.
	for si, reps := range cl.fetchers {
		for ri, eng := range reps {
			eng.SetFault(plan.InjectorFor(cl.ReplicaDevice(si, ri)))
		}
	}
}

// retryable reports whether a shard failure is worth retrying on the
// same copy: transient read errors and per-attempt timeouts are;
// permanent media errors, dead devices, and parent-context cancellation
// are not.
func retryable(err error) bool {
	switch {
	case errors.Is(err, mem.ErrMediaUncorrectable):
		return false
	case errors.Is(err, mem.ErrDeviceDown):
		return false
	case errors.Is(err, context.Canceled):
		return false
	default:
		return true
	}
}

// retryableOn is retryable under replication: failures that are
// permanent for one copy (uncorrectable media, dead device) stay
// retryable on replicated shards, because the attempt rotation lands
// the retry on a different copy holding the same blocks. Context
// cancellation is never retryable.
func (cl *Cluster) retryableOn(err error, si int) bool {
	if retryable(err) {
		return true
	}
	return len(cl.states[si]) > 1 && !errors.Is(err, context.Canceled)
}

// runReplicaCtx issues one attempt on replica ri of shard si under the
// per-attempt deadline.
func (cl *Cluster) runReplicaCtx(ctx context.Context, node *query.Node, dnf [][]string, si, ri, k int) shardOut {
	pruned := pruneForShard(node, cl.shardTerms[si])
	if pruned == nil {
		return shardOut{}
	}
	if pruned.Op != query.OpSparse && pruned != node {
		dnf = pruned.DNF()
	}
	if cl.res.ShardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cl.res.ShardTimeout)
		defer cancel()
	}
	var out core.Result
	var err error
	if pruned.Op == query.OpSparse {
		out, err = cl.accs[si][ri].RunSparseCtx(ctx, pruned.Terms(), k)
	} else {
		out, err = cl.accs[si][ri].RunDNFCtx(ctx, dnf, k)
	}
	if err != nil {
		return shardOut{err: shardError(si, err)}
	}
	return shardOut{m: out.M, topk: out.TopK}
}

// shardError tags an error with its shard (outlined: the retry loop is a
// hot path and must not construct errors inline).
func shardError(si int, err error) error {
	return fmt.Errorf("pool: shard %d: %w", si, err)
}

// pickReplica chooses the replica serving (query, shard, attempt). The
// rotation start is a pure function of (Resilience.Seed, the query's
// stable key, the shard); the attempt index advances the rotation so
// consecutive attempts land on different copies; and replicas whose
// breakers reject are skipped at selection time, not after a failed
// attempt. ok is false only when every replica rejected — the
// all-copies-sick case, which degrades the query through the existing
// breaker error path.
//
//boss:hotpath one call per (query, shard, attempt).
func (cl *Cluster) pickReplica(si int, qkey uint64, attempt int) (*shardState, int, bool) {
	sts := cl.states[si]
	if len(sts) == 1 { // single copy: the breaker gate is the whole decision
		st := sts[0]
		if !st.allow(cl.now(), cl.res.BreakerCooldown) {
			return nil, 0, false
		}
		return st, 0, true
	}
	start := int(replicaDraw(uint64(cl.res.Seed), qkey, si) % uint64(len(sts)))
	for p := 0; p < len(sts); p++ {
		ri := (start + attempt + p) % len(sts)
		if sts[ri].allow(cl.now(), cl.res.BreakerCooldown) {
			return sts[ri], ri, true
		}
	}
	return nil, 0, false
}

// replicaDraw is the deterministic replica-selection hash: a pure
// function of (seed, query key, shard), so replays route identically
// and no two shards share a rotation stream.
func replicaDraw(seed, qkey uint64, si int) uint64 {
	return splitmix64(seed ^ qkey ^ (uint64(si)+1)*0x94d049bb133111eb)
}

// pickBackup selects a hedge's backup copy: the next replica after the
// primary in rotation order whose breaker admits an attempt.
func (cl *Cluster) pickBackup(si, primary int) (*shardState, int, bool) {
	sts := cl.states[si]
	for p := 1; p < len(sts); p++ {
		ri := (primary + p) % len(sts)
		if sts[ri].allow(cl.now(), cl.res.BreakerCooldown) {
			return sts[ri], ri, true
		}
	}
	return nil, 0, false
}

// breakerError tags a breaker rejection with its shard (outlined like
// shardError).
func breakerError(si int) error {
	return fmt.Errorf("pool: shard %d: %w", si, ErrShardUnavailable)
}

// maskHas reports whether shard si participates under a front-door shard
// mask. Mask zero means "no mask" (every shard participates), and shards
// beyond the mask's 64 bits always participate, mirroring the Degraded
// bitmask's range.
func maskHas(mask uint64, si int) bool {
	if mask == 0 || si >= 64 {
		return true
	}
	return mask&(1<<uint(si)) != 0
}

// shedShardError tags a deliberately-shed shard (outlined like shardError).
func shedShardError(si int) error {
	return fmt.Errorf("pool: shard %d: %w", si, ErrShardShed)
}
