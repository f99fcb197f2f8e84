package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"boss/internal/corpus"
	"boss/internal/engine"
	"boss/internal/harness"
	"boss/internal/iiu"
	"boss/internal/query"
)

// figuresPerType is the per-type size of the seeded TREC-like sample the
// figures workload models BOSS over (its sim_qps and traffic);
// enginePerType is how many of each type the traced run times on each
// engine model.
const (
	figuresPerType = 1000
	enginePerType  = 40
)

// regenerate runs the whole bossbench -full experiment set once in a
// fresh context and renders it exactly as the CLI prints it. Each
// experiment is a child span of the request.
func regenerate(cfg harness.Config, tr *tracer, req, parent int64) (*harness.Context, []byte) {
	ctx := harness.NewContext(cfg)
	var out bytes.Buffer
	for _, e := range harness.Experiments() {
		sp := tr.begin("harness."+e.ID, req, parent)
		for _, t := range e.Run(ctx) {
			out.WriteString(t.String())
			out.WriteByte('\n')
		}
		tr.end(sp)
	}
	return ctx, out.Bytes()
}

func runFigures(cfg config, tr *tracer) (*result, error) {
	golden, err := os.ReadFile(cfg.golden)
	if err != nil {
		return nil, err
	}
	hcfg := harness.FullConfig()
	regens := max(2, (cfg.seconds+1)/2)
	if cfg.tiny {
		hcfg.Scale, hcfg.PerType, regens = 0.004, 2, 2
	}
	res := newResult()
	clock := time.Now()

	// Set-up is the corpus and index builds a regeneration starts with.
	_, err = timedSetup(res, cfg, func() ([]*harness.Setup, error) {
		return []*harness.Setup{
			harness.NewSetup(corpus.ClueWebLike(hcfg.Scale), hcfg),
			harness.NewSetup(corpus.CCNewsLike(hcfg.Scale), hcfg),
		}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	res.phase("setup", &clock)

	// Every regeneration is one request; the golden holds the default
	// configuration's output, so each must match it byte for byte.
	gc0 := readGC()
	var hctx *harness.Context
	ps := newPasses(1, regens)
	cpu0 := cpuTime()
	start := time.Now()
	for i := 0; i < regens; i++ {
		root := tr.begin("request", int64(i), 0)
		t := time.Now()
		var out []byte
		hctx, out = regenerate(hcfg, tr, int64(i), root.id)
		ps.lat[0][i] = time.Since(t)
		tr.end(root)
		if cfg.tiny && i == 0 {
			golden = out // no golden at this size: regenerations must agree
		}
		if !bytes.Equal(out, golden) {
			res.failed++
			res.notes = append(res.notes, fmt.Sprintf("regeneration %d differs from %s", i, cfg.golden))
		}
	}
	ps.wall[0], ps.cpu[0], ps.gc = time.Since(start), cpuTime()-cpu0, readGC().since(gc0)
	res.phase("timed", &clock)
	res.attempted = int64(regens)
	res.e2e["ok_ratio"] = float64(res.attempted-res.failed) / float64(res.attempted)
	res.layers["goodput_ratio"] = res.e2e["ok_ratio"]

	// The modeled device over a TREC-like sample drawn with the run's
	// seed from the figure corpora the last regeneration built.
	var sum simSum
	cw := hctx.ClueWeb()
	sample := corpus.SampleWorkload(cw.Corpus, figuresPerType, cfg.seed)
	var exprs, timed []string
	for _, qt := range corpus.AllQueryTypes() {
		for i, q := range sample[qt] {
			sum.add(cw.RunQuery(harness.BOSS, q))
			exprs = append(exprs, q.Expr)
			if i < enginePerType {
				timed = append(timed, q.Expr)
			}
		}
	}
	simMetrics(res, &sum)
	res.props["repeat_share"] = repeatShare(exprs)
	res.phase("model", &clock)
	latencyMetrics(res, ps)
	if tr != nil {
		engineLayers(res, cw, timed, hcfg.K)
		buildLayers(res, corpus.ClueWebLike(hcfg.Scale))
		decodeLayers(res, cw.Hybrid, exprs)
		res.phase("layers", &clock)
	}
	runtime.KeepAlive(hctx)
	return res, nil
}

// engineLayers times the three engine models the figures compare on the
// sample: the software baseline, the IIU and the BOSS core.
func engineLayers(res *result, s *harness.Setup, exprs []string, k int) {
	eng, dev := engine.New(s.Hybrid), iiu.New(s.Fixed)
	var engNs, iiuNs float64
	for _, e := range exprs {
		node := query.MustParse(e)
		start := time.Now()
		if _, err := eng.Run(node, k); err != nil {
			res.failed++
		}
		engNs += float64(time.Since(start))
		start = time.Now()
		if _, err := dev.Run(node, k); err != nil {
			res.failed++
		}
		iiuNs += float64(time.Since(start))
	}
	res.layers["engine.run_ms"] = engNs / 1e6 / float64(len(exprs))
	res.layers["iiu.run_ms"] = iiuNs / 1e6 / float64(len(exprs))
	start := time.Now()
	for _, e := range exprs {
		s.RunQuery(harness.BOSS, corpus.Query{Expr: e})
	}
	res.layers["core.run_ms"] = float64(time.Since(start)) / 1e6 / float64(len(exprs))
}
