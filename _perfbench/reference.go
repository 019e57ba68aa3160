package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"relest/internal/algebra"
	"relest/internal/cluster"
	"relest/internal/estimator"
	"relest/internal/query"
	"relest/internal/relation"
	"relest/internal/sampling"
	"relest/internal/server"
)

// inproc is the same deployment relestd runs, built inside this process
// and driven through its http.Handler without a network hop: the
// reference every relestd answer must match byte for byte, and the
// server rung of the traced run.
type inproc struct {
	h     http.Handler
	close func()
}

func newInproc(p *plan) (*inproc, error) {
	if p.shards > 0 {
		h, err := cluster.StartHarness(cluster.HarnessConfig{
			Shards:      p.shards,
			Mode:        "hash",
			Shard:       server.Config{SynopsisBytesBudget: p.budget},
			Coordinator: cluster.Config{Addr: "127.0.0.1:0"},
		})
		if err != nil {
			return nil, err
		}
		return &inproc{h: h.Coord.Handler(), close: func() { _ = h.Close(context.Background()) }}, nil
	}
	srv := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return &inproc{h: srv.Handler(), close: func() { _ = srv.Shutdown(context.Background()) }}, nil
}

func (ip *inproc) serve(c call) (int, []byte) {
	req := httptest.NewRequest(c.method, c.path, bytes.NewReader(c.body))
	if c.ctype != "" {
		req.Header.Set("Content-Type", c.ctype)
	}
	rec := httptest.NewRecorder()
	ip.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func (ip *inproc) estimate(r *estReq) (int, []byte) {
	return ip.serve(call{http.MethodPost, "/v1/estimate", "application/json", r.body})
}

// load replays the plan's set-up calls.
func (ip *inproc) load(calls []call) error {
	for _, c := range calls {
		if status, body := ip.serve(c); status/100 != 2 {
			return fmt.Errorf("in-process %s %s: status %d: %s", c.method, c.path, status, strings.TrimSpace(string(body)))
		}
	}
	return nil
}

// uploaded re-imports a relation from the CSV bytes relestd received,
// so the in-process copy has exactly the layout the server inferred.
func uploaded(p *plan, name string) (*relation.Relation, error) {
	for _, c := range p.setup {
		if c.path == "/v1/relations/"+name {
			return relation.ImportCSV(name, bytes.NewReader(c.body), nil)
		}
	}
	return nil, fmt.Errorf("relation %q is not uploaded by the plan", name)
}

// staticSynopsis draws a static synopsis exactly as relestd does for the
// spec: relations in sorted-name order from one seeded stream.
func staticSynopsis(p *plan, spec server.SynopsisRequest) (*estimator.Synopsis, error) {
	rng := sampling.NewSource(spec.Seed).Rand(0)
	syn := estimator.NewSynopsis()
	for _, name := range sortedKeys(spec.Relations) {
		r, err := uploaded(p, name)
		if err != nil {
			return nil, err
		}
		n := spec.Relations[name]
		if n > r.Len() {
			n = r.Len()
		}
		if err := syn.AddDrawn(r, n, rng); err != nil {
			return nil, err
		}
	}
	return syn, nil
}

// incrementalReplay applies stream events to a fresh incremental
// synopsis exactly as relestd does: relations tracked in sorted-name
// order, events in send order. onEvent, when set, times each call.
func incrementalReplay(p *plan, events []streamEvent, onEvent func(time.Duration)) (*estimator.Incremental, error) {
	inc := estimator.NewIncrementalWithOptions(estimator.IncrementalOptions{Capacity: p.inc.Capacity, Seed: p.inc.Seed})
	for _, name := range sortedKeys(p.inc.Relations) {
		if err := inc.Track(name, p.base[name].Schema()); err != nil {
			return nil, err
		}
	}
	for _, ev := range events {
		t0 := time.Now()
		var err error
		if ev.op.Delete {
			err = inc.Delete(ev.op.Rel, ev.op.Tuple)
		} else {
			err = inc.Insert(ev.op.Rel, ev.op.Tuple)
		}
		if onEvent != nil {
			onEvent(time.Since(t0))
		}
		if err != nil {
			return nil, err
		}
	}
	return inc, nil
}

type synSchemas struct{ syn *estimator.Synopsis }

func (s synSchemas) Schema(name string) (*relation.Schema, bool) {
	r, ok := s.syn.Relation(name)
	if !ok {
		return nil, false
	}
	return r.Schema(), true
}

var varianceMethods = map[string]estimator.VarianceMethod{
	"": estimator.VarAuto, "auto": estimator.VarAuto, "none": estimator.VarNone,
	"analytic": estimator.VarAnalytic, "split-sample": estimator.VarSplitSample, "jackknife": estimator.VarJackknife,
}

// estimatorCall is one plain-mode request resolved to an estimator
// handle, the way relestd resolves it: legacy requests run sample-only,
// requests naming a tier policy or precision run the tier planner.
type estimatorCall struct {
	st   *query.Statement
	h    *estimator.Estimator
	opts estimator.Options
}

func resolve(syn *estimator.Synopsis, w server.EstimateRequest, variance estimator.VarianceMethod, policy estimator.TierPolicy) (*estimatorCall, error) {
	st, err := query.Parse(w.Query, synSchemas{syn})
	if err != nil {
		return nil, err
	}
	opts := estimator.Options{Variance: variance, Confidence: w.Confidence, Seed: w.Seed, Workers: w.Workers}
	h := estimator.NewEstimator(syn, estimator.WithOptions(opts), estimator.WithTierPolicy(policy), estimator.WithPrecision(w.Precision))
	return &estimatorCall{st: st, h: h, opts: opts}, nil
}

// requestPolicy is the tier policy relestd applies to a request.
func requestPolicy(w server.EstimateRequest) (estimator.TierPolicy, error) {
	policy, err := estimator.ParseTierPolicy(w.TierPolicy)
	if err != nil {
		return 0, err
	}
	if policy == estimator.TierDefault && w.Precision <= 0 {
		return estimator.TierSampleOnly, nil
	}
	return policy, nil
}

func (c *estimatorCall) run() (estimator.Estimate, error) {
	req := estimator.Request{Expr: c.st.Expr, Col: c.st.AggCol}
	var res estimator.Result
	var err error
	switch c.st.Agg {
	case "count":
		res, err = c.h.Count(context.Background(), req)
	case "sum":
		res, err = c.h.Sum(context.Background(), req)
	default:
		return estimator.Estimate{}, fmt.Errorf("the benchmark sends count and sum only, got %q", c.st.Agg)
	}
	return res.Estimate, err
}

// estimatorAnswer is the in-process estimator.Estimator answer to a
// request, as relestd computes it.
func estimatorAnswer(syn *estimator.Synopsis, w server.EstimateRequest) (estimator.Estimate, error) {
	vm, ok := varianceMethods[w.Variance]
	if !ok {
		return estimator.Estimate{}, fmt.Errorf("unknown variance %q", w.Variance)
	}
	policy, err := requestPolicy(w)
	if err != nil {
		return estimator.Estimate{}, err
	}
	c, err := resolve(syn, w, vm, policy)
	if err != nil {
		return estimator.Estimate{}, err
	}
	return c.run()
}

// exactAnswer evaluates a request's count or sum exactly over the full
// relations: counts with the streaming executor (algebra.Count), sums
// over a two-way equi-join from its evaluated operands.
func exactAnswer(cat algebra.MapCatalog, r *estReq) (float64, error) {
	if r.sumOf != nil {
		return exactJoinSum(cat, r.sumOf[0], r.sumOf[1])
	}
	st, err := query.Parse(r.wire.Query, query.CatalogSchemas{Cat: cat})
	if err != nil {
		return 0, err
	}
	if st.Agg != "count" {
		return 0, fmt.Errorf("no exact evaluation for %q", r.wire.Query)
	}
	n, err := algebra.Count(st.Expr, cat)
	return float64(n), err
}

// exactJoinSum is SUM(id) over join(l, r, on a = a), whose id column is
// l's: Σ over l's tuples of id × the number of r tuples with the same a.
func exactJoinSum(cat algebra.MapCatalog, l, r string) (float64, error) {
	eval := func(text string) (*relation.Relation, error) {
		st, err := query.Parse("count("+text+")", query.CatalogSchemas{Cat: cat})
		if err != nil {
			return nil, err
		}
		return algebra.Eval(st.Expr, cat)
	}
	left, err := eval(l)
	if err != nil {
		return 0, err
	}
	right, err := eval(r)
	if err != nil {
		return 0, err
	}
	la, lid, ra := left.Schema().ColumnIndex("a"), left.Schema().ColumnIndex("id"), right.Schema().ColumnIndex("a")
	if la < 0 || lid < 0 || ra < 0 {
		return 0, fmt.Errorf("join sum over %s and %s: want columns a and id", left.Schema(), right.Schema())
	}
	count := map[int64]float64{}
	for i := 0; i < right.Len(); i++ {
		count[right.Value(i, ra).Int64()]++
	}
	t := 0.0
	for i := 0; i < left.Len(); i++ {
		t += float64(left.Value(i, lid).Int64()) * count[left.Value(i, la).Int64()]
	}
	return t, nil
}

// answer is the decoded part of an estimate response the checks read.
type answer struct {
	Value, Lo, Hi float64
}

// checkAnswer validates one estimate response: status 200, a finite
// value and lo ≤ value ≤ hi.
func checkAnswer(status int, body []byte) (answer, error) {
	if status != http.StatusOK {
		return answer{}, fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	var resp server.EstimateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return answer{}, fmt.Errorf("decoding estimate: %w", err)
	}
	e := resp.Estimate
	a := answer{Value: e.Value, Lo: e.Lo, Hi: e.Hi}
	if math.IsNaN(a.Value) || math.IsInf(a.Value, 0) {
		return a, fmt.Errorf("value %v is not finite", a.Value)
	}
	if !(a.Lo <= a.Value && a.Value <= a.Hi) {
		return a, fmt.Errorf("interval [%v, %v] does not hold value %v", a.Lo, a.Hi, a.Value)
	}
	return a, nil
}

// sameBits reports whether two float64s are the identical value.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
