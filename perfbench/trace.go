package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one request share Req; Parent is the ID of the enclosing span
// (0 for a root). Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a started span; close it with tracer.end.
type open struct {
	id, parent, req int64
	name            string
	start           time.Time
}

// begin starts a span named name for request req under parent (0: root).
func (t *tracer) begin(name string, req, parent int64) open {
	if t == nil {
		return open{}
	}
	return open{id: t.nextID.Add(1), parent: parent, req: req, name: name, start: time.Now()}
}

// end finishes a span.
func (t *tracer) end(o open) {
	if t != nil {
		t.add(o.name, o.req, o.parent, o.start, time.Now(), o.id)
	}
}

// add records a span with the given ID (0: a fresh one) whose interval
// the caller measured itself.
func (t *tracer) add(name string, req, parent int64, start, end time.Time, id int64) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.nextID.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	MeanUs  float64 `json:"mean_us"`
	P50Us   float64 `json:"p50_us"`
}

// summarize returns per-name totals, with self time being a span's
// duration minus the part of it its children cover.
func (t *tracer) summarize() map[string]*spanStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := make(map[string][]float64)
	out := make(map[string]*spanStat)
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.TotalMs += float64(d) / 1e6
		st.SelfMs += float64(d-covered(s, children[s.ID])) / 1e6
		durs[s.Name] = append(durs[s.Name], float64(d)/1e3)
	}
	for name, st := range out {
		st.MeanUs = st.TotalMs * 1e3 / float64(st.Count)
		st.P50Us = median(durs[name])
	}
	return out
}

// covered returns how much of parent's interval the union of its
// children's intervals covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// nestingErrors counts spans that do not lie inside their parent.
func (t *tracer) nestingErrors() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[int64]span, len(t.spans))
	for _, s := range t.spans {
		byID[s.ID] = s
	}
	bad := 0
	for _, s := range t.spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || s.Start < p.Start || s.End > p.End || s.Req != p.Req {
			bad++
		}
	}
	return bad
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
