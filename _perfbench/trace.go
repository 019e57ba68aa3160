package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/obs"
	"relest/internal/relation"
	"relest/internal/sampling"
)

// span is one traced call of the in-process replay.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a request root
	Req    int    `json:"req"`
}

// tracer keeps spans in memory until the run ends. A tracer that is off
// records nothing, which is how the untraced replay measures what
// tracing costs.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// medianUS is the median duration of the named spans in microseconds
// (0 when the rung never ran on this workload).
func (t *tracer) medianUS(name string) float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start)/1e3)
		}
	}
	return median(d)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// memDelta measures heap allocations of one call.
type memDelta struct{ bytes, allocs []float64 }

func (m *memDelta) measure(fn func()) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	m.bytes = append(m.bytes, float64(b.TotalAlloc-a.TotalAlloc))
	m.allocs = append(m.allocs, float64(b.Mallocs-a.Mallocs))
}

// replay is the in-process side of a traced run: the synopsis the
// estimator rungs read, the deployment the server rung calls, and
// relestd's answers the rungs must reproduce.
type replay struct {
	p      *plan
	syn    map[string]*estimator.Synopsis // by synopsis name
	ip     *inproc
	want   [][]byte // relestd's bodies for p.fixed
	tr     *tracer
	full   memDelta
	server memDelta
	errs   []string
	// plainHandler times the server rung with tracing off, for
	// trace.overhead_pct.
	plainHandler []float64
}

// request replays fixed request i through every rung, from the parser
// down to the term counts, then the estimator and the server rungs. The
// estimator rungs read the single-node synopsis relestd holds; on the
// sharded workload they read the synopsis one node would draw for the
// same spec, and since a two-shard answer merges two such estimates,
// only the server rung is compared with relestd there.
func (rp *replay) request(i, req int) {
	r := rp.p.fixed[i]
	tr := rp.tr
	root := tr.begin("request", -1, req)
	defer tr.end(root)
	syn := rp.syn[r.wire.Synopsis]
	fail := func(rung string, err error) {
		if len(rp.errs) < 10 {
			rp.errs = append(rp.errs, fmt.Sprintf("%s on %q: %v", rung, r.wire.Query, err))
		}
	}

	s := tr.begin("query.parse", root, req)
	c, err := resolve(syn, r.wire, estimator.VarNone, estimator.TierSampleOnly)
	tr.end(s)
	if err != nil {
		fail("query.parse", err)
		return
	}
	s = tr.begin("algebra.normalize", root, req)
	poly, err := algebra.Normalize(c.st.Expr)
	tr.end(s)
	if err != nil {
		fail("algebra.normalize", err)
		return
	}
	cat := algebra.MapCatalog{}
	for _, name := range syn.Names() {
		cat[name], _ = syn.Relation(name)
	}
	prepared := make([]*algebra.PreparedTerm, len(poly.Terms))
	insts := make([]algebra.Instances, len(poly.Terms))
	s = tr.begin("algebra.prepare", root, req)
	for k := range poly.Terms {
		inst, err := algebra.BindInstances(&poly.Terms[k], cat)
		if err == nil {
			prepared[k], err = algebra.Prepare(&poly.Terms[k], inst)
		}
		if err != nil {
			tr.end(s)
			fail("algebra.prepare", err)
			return
		}
		insts[k] = inst
	}
	tr.end(s)
	s = tr.begin("relation.index_build", root, req)
	for k, t := range poly.Terms {
		for _, eq := range t.Eqs {
			relation.BuildIndex(insts[k][eq.B.Occ], []int{eq.B.Col})
		}
	}
	tr.end(s)
	s = tr.begin("algebra.term_count", root, req)
	for _, pt := range prepared {
		pt.Count()
	}
	tr.end(s)

	// Point estimate (no variance, sample tier), then the request as
	// relestd runs it.
	s = tr.begin("estimator.point", root, req)
	point, err := c.run()
	tr.end(s)
	if err != nil {
		fail("estimator.point", err)
		return
	}
	vm := varianceMethods[r.wire.Variance]
	policy, err := requestPolicy(r.wire)
	if err != nil {
		fail("estimator.full", err)
		return
	}
	fc, err := resolve(syn, r.wire, vm, policy)
	if err != nil {
		fail("estimator.full", err)
		return
	}
	var full estimator.Estimate
	measure := func(m *memDelta, fn func()) {
		if tr.on {
			m.measure(fn)
		} else {
			fn()
		}
	}
	measure(&rp.full, func() {
		s = tr.begin("estimator.full", root, req)
		full, err = fc.run()
		tr.end(s)
	})
	if err != nil {
		fail("estimator.full", err)
		return
	}
	single := rp.p.shards == 0
	if a, aerr := checkAnswer(http.StatusOK, rp.want[i]); aerr != nil {
		fail("relestd answer", aerr)
	} else if single && !sameBits(full.Value, a.Value) {
		fail("estimator.full", fmt.Errorf("value %v, relestd %v", full.Value, a.Value))
	} else if single && policy == estimator.TierSampleOnly && !sameBits(point.Value, a.Value) {
		fail("estimator.point", fmt.Errorf("value %v, relestd %v", point.Value, a.Value))
	}
	if c.st.Agg == "count" {
		sc, err := resolve(syn, r.wire, estimator.VarAuto, estimator.TierSketchOnly)
		if err == nil {
			s = tr.begin("sketch.count", root, req)
			_, serr := sc.run()
			tr.end(s)
			if serr != nil && s >= 0 {
				// The sketch tier cannot answer this shape; drop the span
				// so the rung's median covers answered calls only.
				tr.spans[s].Name = "sketch.refused"
			}
		}
	}
	var status int
	var body []byte
	measure(&rp.server, func() {
		s = tr.begin("server.handler", root, req)
		t0 := time.Now()
		status, body = rp.ip.estimate(r)
		if !tr.on {
			rp.plainHandler = append(rp.plainHandler, float64(time.Since(t0))/1e3)
		}
		tr.end(s)
	})
	if status != http.StatusOK || string(body) != string(rp.want[i]) {
		fail("server.handler", fmt.Errorf("in-process %d %s, relestd %s", status, body, rp.want[i]))
	}
}

// tracedRequests is how many requests the traced replay makes per
// workload (rounded up to whole passes over the fixed list).
const tracedRequests = 300

// runTraced is the per-layer run: one set-up, the timed phase with /metrics
// scraped around it, then an in-process replay of the fixed list through
// each layer's public entry point with a span per call.
func (b *bench) runTraced(p *plan) (*result, []string, error) {
	l, err := b.setup(p)
	if err != nil {
		return nil, nil, err
	}
	ph, delta, want, err := b.tracedLoad(p, l)
	if cerr := l.close(); err == nil && cerr != nil {
		err = fmt.Errorf("stopping relestd: %w", cerr)
	}
	if err != nil {
		return nil, nil, err
	}
	return b.layers(p, ph, delta, want)
}

// tracedLoad runs the timed phase on a set-up relestd and returns what it
// measured, the /metrics deltas over it, and relestd's answers to the
// fixed list that the rungs must reproduce: the warm-up bodies, or on
// stream-rw a pass after the writer stopped.
func (b *bench) tracedLoad(p *plan, l *live) (*phase, promSample, [][]byte, error) {
	before, err := l.d.scrape()
	if err != nil {
		return nil, nil, nil, err
	}
	ph, err := b.timed(p, l)
	if err != nil {
		return nil, nil, nil, err
	}
	after, err := l.d.scrape()
	if err != nil {
		return nil, nil, nil, err
	}
	want := l.warm
	if p.capacity > 0 {
		if want, err = b.pass(l.d, p.fixed); err != nil {
			return nil, nil, nil, err
		}
	}
	return ph, promDelta(before, after), want, nil
}

// layers runs the in-process replay and assembles the per-layer metrics.
func (b *bench) layers(p *plan, ph *phase, delta promSample, want [][]byte) (*result, []string, error) {
	col := obs.NewCollector()
	sampling.SetRecorder(col)
	defer sampling.SetRecorder(nil)

	rp := &replay{p: p, syn: map[string]*estimator.Synopsis{}, want: want, tr: &tracer{on: true, t0: time.Now()}}
	ip, err := newInproc(p)
	if err != nil {
		return nil, nil, err
	}
	defer ip.close()
	rp.ip = ip
	if err := ip.load(p.setup); err != nil {
		return nil, nil, err
	}
	// stream-rw's events through the in-process server (untimed), and
	// through an in-process incremental synopsis, one timed call each.
	sent := p.events[:ph.sent]
	var insertUS, snapshotUS []float64
	var displaced float64
	if p.capacity > 0 {
		for _, ev := range sent {
			if status, body := ip.serve(ev.call); status != http.StatusOK {
				return nil, nil, fmt.Errorf("in-process stream event: %d %s", status, body)
			}
		}
		d0 := col.Metrics().Counter("relest_sampling_reservoir_displaced_total").Value()
		inc, err := incrementalReplay(p, sent, func(d time.Duration) { insertUS = append(insertUS, float64(d)/1e3) })
		if err != nil {
			return nil, nil, err
		}
		displaced = col.Metrics().Counter("relest_sampling_reservoir_displaced_total").Value() - d0
		var snap *estimator.Synopsis
		for k := 0; k < 20; k++ {
			t0 := time.Now()
			if snap, err = inc.Snapshot(); err != nil {
				return nil, nil, err
			}
			snapshotUS = append(snapshotUS, float64(time.Since(t0))/1e3)
		}
		rp.syn[p.fixed[0].wire.Synopsis] = snap
	}
	for name := range synopsisNames(p) {
		if rp.syn[name] != nil {
			continue
		}
		syn, err := staticSynopsis(p, p.static[name])
		if err != nil {
			return nil, nil, err
		}
		rp.syn[name] = syn
	}

	rounds := (tracedRequests + len(p.fixed) - 1) / len(p.fixed)
	draws0 := col.Metrics().Counter("relest_sampling_draws_total").Value()
	req := 0
	for k := 0; k < rounds; k++ {
		for i := range p.fixed {
			rp.request(i, req)
			req++
		}
	}
	draws := col.Metrics().Counter("relest_sampling_draws_total").Value() - draws0
	// The same replay with tracing off: the top rung's difference is what
	// the spans and allocation counters cost it.
	traced := rp.tr
	rp.tr = &tracer{}
	for k := 0; k < rounds; k++ {
		for i := range p.fixed {
			rp.request(i, -1)
		}
	}
	rp.tr = traced
	if err := os.MkdirAll(filepath.Join(b.out, "traces"), 0o755); err != nil {
		return nil, nil, err
	}
	spanFile := filepath.Join(b.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", p.name, b.seed))
	if err := traced.write(spanFile); err != nil {
		return nil, nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	ops := float64(len(ph.readLat))
	writes := float64(len(ph.writeLat))
	clientMS := mean(ph.readLat)
	us := traced.medianUS
	set("query.parse_us", "us", us("query.parse"))
	set("algebra.normalize_us", "us", us("algebra.normalize"))
	set("algebra.prepare_us", "us", us("algebra.prepare"))
	set("relation.index_build_us", "us", us("relation.index_build"))
	set("algebra.term_count_us", "us", us("algebra.term_count"))
	built, hits := delta.sum("relest_plan_built_total"), delta.sum("relest_plan_cache_hit_total")
	set("algebra.plans_built_per_op", "count", ratio(built, ops))
	set("algebra.plan_hit_ratio", "ratio", ratio(hits, hits+built))
	set("algebra.cse_shared_per_op", "count", ratio(delta.sum("relest_cse_subplans_shared_total"), ops))
	point, full := us("estimator.point"), us("estimator.full")
	set("estimator.point_us", "us", point)
	set("estimator.full_us", "us", full)
	set("estimator.variance_us", "us", full-point)
	set("estimator.terms_per_op", "count", ratio(delta.sum("relest_terms_total"), ops))
	set("estimator.replicates_per_op", "count", ratio(delta.sum("relest_replicates_total"), ops))
	set("estimator.bytes_per_op", "B", mean(rp.full.bytes))
	set("estimator.allocs_per_op", "count", mean(rp.full.allocs))
	set("sketch.count_us", "us", us("sketch.count"))
	sk := delta.sum("relest_tier_answered_total", `tier="sketch"`)
	set("sketch.answered_ratio", "ratio", ratio(sk, delta.sum("relest_tier_answered_total")))
	set("parallel.busy_ratio", "ratio", ratio(delta.sum("relest_pool_busy_seconds_total"), delta.sum("relest_pool_elapsed_seconds_total")))
	handler := us("server.handler")
	set("server.handler_us", "us", handler)
	set("server.self_us", "us", handler-full)
	set("server.handler_allocs_per_op", "count", mean(rp.server.allocs))
	served := ratio(delta.sum("relestd_request_seconds_sum", `mode="plain"`), delta.sum("relestd_request_seconds_count", `mode="plain"`))
	set("server.client_gap_ms", "ms", clientMS-1000*served)
	set("server.evictions_per_op", "count", ratio(delta.sum("relestd_synopsis_evictions_total"), ops))
	set("server.rebuilds_per_op", "count", ratio(delta.sum("relestd_synopsis_rebuilds_total"), ops))
	set("sampling.draws_per_op", "count", ratio(draws, float64(req)))
	set("sampling.insert_us", "us", median(insertUS))
	set("estimator.snapshot_us", "us", median(snapshotUS))
	set("server.wal_events_per_write", "count", ratio(delta.sum("relestd_wal_events_total"), writes))
	set("sampling.displaced_per_write", "count", ratio(displaced, float64(len(sent))))
	shardMS := 0.0
	if p.shards > 0 {
		shardMS = 1000 * ratio(delta.sum("relestd_shard_request_seconds_sum"), delta.sum("relestd_shard_request_seconds_count"))
		set("cluster.self_ms", "ms", clientMS-shardMS)
	} else {
		set("cluster.self_ms", "ms", 0)
	}
	set("cluster.fanout_per_op", "count", ratio(delta.sum("relestd_shard_fanout_total"), ops))
	set("cluster.shard_ms", "ms", shardMS)
	set("cluster.partial_ratio", "ratio", ratio(delta.sum("relestd_partial_responses_total"), ops))
	lag := 0.0
	if len(ph.writeLag) > 0 {
		lag, _ = quantile(ph.writeLag, 0.99)
	}
	set("load.gen_lag_p99_ms", "ms", lag)
	timedOps := ops
	if p.capacity > 0 {
		timedOps += writes
	}
	set("load.client_cpu_ms_per_op", "ms", 1000*ratio(ph.clientCPU, timedOps))
	plain := median(rp.plainHandler)
	set("trace.overhead_pct", "%", 100*ratio(handler-plain, plain))

	failed := ph.rfails + ph.wfail + len(rp.errs)
	res.Attempted = ph.reads + ph.writes + req
	res.Failed = failed
	res.Correct = failed == 0
	notes := []string{
		fmt.Sprintf("%d spans written to %s", len(traced.spans), spanFile),
		fmt.Sprintf("replayed %d requests in process; timed phase %d reads, %d writes", req, len(ph.readLat), len(ph.writeLat)),
	}
	for _, e := range append(ph.errs, rp.errs...) {
		notes = append(notes, "FAIL "+e)
	}
	return res, notes, nil
}

// synopsisNames lists the synopses the fixed list reads.
func synopsisNames(p *plan) map[string]bool {
	out := map[string]bool{}
	for _, r := range p.fixed {
		out[r.wire.Synopsis] = true
	}
	return out
}
