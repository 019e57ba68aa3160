package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"relest/internal/relation"
	"relest/internal/server"
	"relest/internal/workload"
)

// call is one set-up or write request, replayable against relestd over
// loopback and against an in-process handler.
type call struct {
	method, path, ctype string
	body                []byte
}

// estReq is one estimate request with its wire body marshalled once.
type estReq struct {
	wire server.EstimateRequest
	body []byte
	// noAudit keeps a request off the audit synopses (see addAudits).
	noAudit bool
	// sumOf is set on "sum(join(L, R, on a = a), id)" requests to the
	// texts of L and R, whose exact answer is Σ over L of id × the R
	// tuples sharing a (the join's id column is L's).
	sumOf *[2]string
}

// sumReq builds a sum over an equi-join on a of two relation
// expressions.
func sumReq(l, r string, w server.EstimateRequest) *estReq {
	w.Query = fmt.Sprintf("sum(join(%s, %s, on a = a), id)", l, r)
	e := newEstReq(w)
	e.sumOf = &[2]string{l, r}
	return e
}

func newEstReq(w server.EstimateRequest) *estReq {
	b, err := json.Marshal(w)
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return &estReq{wire: w, body: b}
}

// streamEvent is one insert/delete of the stream workloads, kept both as
// a typed tuple (for the in-process replay) and as a wire call.
type streamEvent struct {
	op   workload.Op
	call call
}

// plan is everything one workload sends, generated from the seed alone.
type plan struct {
	name       string
	daemonArgs []string
	// base holds the generated relations relestd receives as CSV, by
	// name; exact answers are computed over them.
	base map[string]*relation.Relation
	// setup registers relations and synopses, in order.
	setup []call
	// fixed is the request list that set-up warms up with and that the
	// answer-quality and byte-identity checks run over.
	fixed []*estReq
	// audit is the fixed list again, over extra synopses that auditSetup
	// creates after the timed phase with other seeds: a static synopsis
	// is one random sample, and the answer-quality metrics need many to
	// be steady from seed to seed.
	auditSetup []call
	audit      []*estReq
	// timed returns the i-th read of the timed phase.
	timed   func(i int) *estReq
	readers int
	// events is stream-rw's stream of insert/delete events: the first
	// ones pre-fill the synopsis during set-up and the rest arrive at
	// writeRate during the timed phase.
	events    []streamEvent
	writeRate float64
	// capacity is stream-rw's reservoir capacity: set-up pre-fills to
	// it, and its synopsis is WAL-backed.
	capacity int
	// static records the static synopses' specs, for the in-process
	// estimator.
	static map[string]server.SynopsisRequest
	// inc is the spec of the incremental synopsis the events feed.
	inc server.SynopsisRequest
	// shards is the shard count of a sharded deployment (0 for a single
	// node), whose reference is an in-process coordinator; budget is its
	// per-shard synopsis byte budget.
	shards int
	budget int64
}

const (
	pairRows   = 20000
	pairDomain = 2000
	sampleRows = 1000
	// adhocFixed is the length of adhoc-sharded's fixed (warm-up) list.
	adhocFixed = 120
	// adhocBudget is the per-shard synopsis byte budget: about half the
	// 16000 resident sample bytes each shard holds for the four pairs'
	// synopses (4 pairs × 2 relations × 500 rows × 8 bytes) at the seed
	// commit.
	adhocBudget = 8000
	// hotAudits and adhocAudits are the audit synopses per static
	// synopsis of each workload.
	hotAudits   = 144
	adhocAudits = 20
	// streamRate is stream-rw's open-loop write rate in events/s.
	streamRate = 100.0
	streamCap  = 1000
)

func csvCall(rel *relation.Relation) call {
	var buf bytes.Buffer
	if err := relation.ExportCSV(rel, &buf); err != nil {
		panic(err) // writes to a bytes.Buffer do not fail
	}
	return call{http.MethodPost, "/v1/relations/" + rel.Name(), "text/csv", buf.Bytes()}
}

func jsonCall(path string, v any) call {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return call{http.MethodPost, path, "application/json", b}
}

// renamed copies a generated relation under another name.
func renamed(r *relation.Relation, name string) *relation.Relation {
	idx := make([]int, r.Len())
	for i := range idx {
		idx[i] = i
	}
	return r.Subset(name, idx)
}

// streamEvents turns per-relation workload.Stream sequences into one
// interleaved, deterministic event list for the named synopsis.
func streamEvents(rng *rand.Rand, syn string, rels []string, opsPerRel int) []streamEvent {
	seqs := make([][]workload.Op, len(rels))
	for i, r := range rels {
		seqs[i] = workload.Stream(rng, workload.StreamSpec{Rel: r, Ops: opsPerRel, DeleteFrac: 0.1, Z: 0.8, Domain: 500})
	}
	var out []streamEvent
	for k := 0; k < opsPerRel; k++ {
		for i := range rels {
			op := seqs[i][k]
			wire := server.StreamRequest{Op: "insert", Relation: op.Rel}
			if op.Delete {
				wire.Op = "delete"
			}
			for _, v := range op.Tuple {
				wire.Tuple = append(wire.Tuple, v.String())
			}
			out = append(out, streamEvent{op: op, call: jsonCall("/v1/synopses/"+syn+"/stream", wire)})
		}
	}
	return out
}

func newPlan(name string, seed int64) (*plan, error) {
	switch name {
	case "hot-repeat":
		return hotRepeat(seed), nil
	case "adhoc-sharded":
		return adhocSharded(seed), nil
	case "stream-rw":
		return streamRW(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want hot-repeat, adhoc-sharded or stream-rw)", name)
}

// hotRepeat: one zipf pair, one static synopsis, a fixed list of twelve
// queries repeated round-robin. The pair's rank→value mappings are
// positively correlated, so every seed gives the same frequency profile
// under a different labelling: the seed moves the data and the samples,
// not the shape of the work.
func hotRepeat(seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	r1, r2 := workload.JoinPair(rng, workload.JoinPairSpec{Z1: 0.5, Z2: 1.0, Domain: pairDomain, N1: pairRows, N2: pairRows, Correlation: workload.Positive})
	p := &plan{name: "hot-repeat", base: map[string]*relation.Relation{"R1": r1, "R2": r2}, readers: 2}
	spec := server.SynopsisRequest{Kind: "static", Relations: map[string]int{"R1": sampleRows, "R2": sampleRows}, Seed: seed + 1}
	p.static = map[string]server.SynopsisRequest{"main": spec}
	p.setup = []call{csvCall(r1), csvCall(r2), jsonCall("/v1/synopses/main", spec)}
	// Selections are on id, which generated relations assign in frequency
	// rank order, so every seed selects the same ranks and the work per
	// query does not depend on the seed's value labelling. They also keep
	// the union's and intersect's joins small, whose exact answers
	// deduplicate their operands' tuples.
	texts := []struct {
		q, variance, tier string
		precision         float64
		sum               [2]string
		noAudit           bool
	}{
		{q: "count(join(R1, R2, on a = a))"},
		{q: "count(join(select(R1, id < 10000), R2, on a = a))"},
		{q: "count(join(R1, select(R2, id >= 4000), on a = a))"},
		{q: "count(join(select(R1, id >= 2000), select(R2, id >= 5000), on a = a))"},
		{q: "count(union(union(join(select(R1, id >= 16000), R2, on a = a), join(select(R1, id >= 16000), select(R2, id >= 10000), on a = a)), join(select(R1, id >= 18000), select(R2, id >= 5000), on a = a)))", noAudit: true},
		{q: "count(intersect(join(select(R1, id >= 15000), select(R1, id < 19000), on a = a), join(select(R1, id >= 14000), R1, on a = a)))", noAudit: true},
		{sum: [2]string{"R1", "R2"}},
		{q: "count(join(select(R1, id < 15000), R2, on a = a))", variance: "jackknife"},
		{q: "count(join(R1, R2, on a = a))", tier: "auto", precision: 0.5},
		{q: "count(join(R1, R1, on a = a))", tier: "auto", precision: 0.2},
		{q: "count(select(R2, id >= 3000))"},
		{sum: [2]string{"select(R1, id >= 5000)", "R2"}},
	}
	for i, t := range texts {
		w := server.EstimateRequest{Query: t.q, Synopsis: "main", Seed: int64(i + 1), Variance: t.variance,
			TierPolicy: t.tier, Precision: t.precision}
		r := newEstReq(w)
		if t.q == "" {
			r = sumReq(t.sum[0], t.sum[1], w)
		}
		// Tier-routed requests stay off the audit synopses: the sketch
		// tier is built over the base relations, so it answers alike on
		// every copy, and each copy would rebuild it.
		r.noAudit = t.noAudit || t.tier != ""
		p.fixed = append(p.fixed, r)
	}
	p.timed = func(i int) *estReq { return p.fixed[i%len(p.fixed)] }
	p.addAudits("main", spec, hotAudits)
	return p
}

// addAudits registers n audit copies of a static synopsis (seeds offset
// from the original's) and repeats the fixed requests on it over each,
// except those marked noAudit: the costliest ones, whose answers would
// take most of a run's time across many copies.
func (p *plan) addAudits(name string, spec server.SynopsisRequest, n int) {
	for k := 0; k < n; k++ {
		aname := fmt.Sprintf("%s-audit%d", name, k)
		aspec := spec
		aspec.Seed = spec.Seed + int64(1000*(k+1))
		p.auditSetup = append(p.auditSetup, jsonCall("/v1/synopses/"+aname, aspec))
		for _, r := range p.fixed {
			if r.wire.Synopsis != name || r.noAudit {
				continue
			}
			a := *r
			a.wire.Synopsis = aname
			a.body = newEstReq(a.wire).body
			p.audit = append(p.audit, &a)
		}
	}
}

// adhocSharded: four zipf pairs on a two-shard cluster whose synopsis
// budget holds about half of them; every read is a fresh query.
//
// One closed-loop client drives it. Each read runs the coordinator and
// both shard nodes, so a second client saturates both CPUs of a 2-CPU
// host and its p99 then measures queueing behind the host's other
// tenants: over five seeds it spread 0.36 of its median, against 0.12
// with one client.
func adhocSharded(seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{name: "adhoc-sharded", base: map[string]*relation.Relation{}, static: map[string]server.SynopsisRequest{},
		readers: 1, shards: 2, budget: adhocBudget}
	p.daemonArgs = []string{"-shards", "2", "-synopsis-budget-bytes", strconv.Itoa(adhocBudget)}
	skews := [][2]float64{{0.5, 1.0}, {0.8, 0.8}, {1.0, 0.5}, {0.3, 1.2}}
	for k, z := range skews {
		r1, r2 := workload.JoinPair(rng, workload.JoinPairSpec{Z1: z[0], Z2: z[1], Domain: pairDomain, N1: pairRows, N2: pairRows, Correlation: workload.Positive})
		a, b := renamed(r1, fmt.Sprintf("P%dA", k)), renamed(r2, fmt.Sprintf("P%dB", k))
		p.base[a.Name()], p.base[b.Name()] = a, b
		p.setup = append(p.setup, csvCall(a), csvCall(b))
	}
	specs := make([]server.SynopsisRequest, len(skews))
	for k := range skews {
		specs[k] = server.SynopsisRequest{Kind: "static", Seed: seed + int64(10+k),
			Relations: map[string]int{fmt.Sprintf("P%dA", k): sampleRows, fmt.Sprintf("P%dB", k): sampleRows}}
		p.static[fmt.Sprintf("S%d", k)] = specs[k]
		p.setup = append(p.setup, jsonCall(fmt.Sprintf("/v1/synopses/S%d", k), specs[k]))
	}
	gen := adhocGen{rng: rand.New(rand.NewSource(seed + 99)), picks: workload.PickSpec{Keys: len(skews), Z: 1.0}}
	for i := 0; i < adhocFixed; i++ {
		p.fixed = append(p.fixed, gen.next())
	}
	for k, spec := range specs {
		p.addAudits(fmt.Sprintf("S%d", k), spec, adhocAudits)
	}
	// Timed reads come from their own generator state, so no timed query
	// repeats a warm-up one (nor, with overwhelming probability, another
	// timed one). They are generated on demand, in index order.
	timedGen := adhocGen{rng: rand.New(rand.NewSource(seed + 199)), picks: gen.picks}
	var (
		mu    sync.Mutex
		timed []*estReq
	)
	p.timed = func(i int) *estReq {
		mu.Lock()
		defer mu.Unlock()
		for len(timed) <= i {
			timed = append(timed, timedGen.next())
		}
		return timed[i]
	}
	return p
}

// adhocGen draws fresh shard-key count and sum queries with random
// selection constants, picking a pair with Zipf skew. Selections are on
// id (frequency rank order, as in hot-repeat) and keep at least a fifth
// of a relation, so no exact answer is zero.
type adhocGen struct {
	rng   *rand.Rand
	picks workload.PickSpec
	n     int64
}

func (g *adhocGen) next() *estReq {
	k := g.picks.Picks(g.rng, 1)[0]
	a, b := fmt.Sprintf("P%dA", k), fmt.Sprintf("P%dB", k)
	c1 := pairRows/5 + g.rng.Intn(pairRows*4/5)
	c2 := pairRows/5 + g.rng.Intn(pairRows*4/5)
	g.n++
	w := server.EstimateRequest{Synopsis: fmt.Sprintf("S%d", k), Seed: g.n}
	switch g.rng.Intn(4) {
	case 0:
		w.Query = fmt.Sprintf("count(join(select(%s, id < %d), %s, on a = a))", a, c1, b)
	case 1:
		w.Query = fmt.Sprintf("count(join(%s, select(%s, id >= %d), on a = a))", a, b, pairRows-c2)
	case 2:
		w.Query = fmt.Sprintf("count(join(select(%s, id >= %d), select(%s, id < %d), on a = a))", a, pairRows-c1, b, c2)
	default:
		return sumReq(fmt.Sprintf("select(%s, id < %d)", a, c1), b, w)
	}
	return newEstReq(w)
}

// streamRW: one incremental synopsis over two streamed relations, an
// open-loop writer and a closed-loop reader.
func streamRW(seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{name: "stream-rw", base: map[string]*relation.Relation{}, readers: 1, capacity: streamCap, writeRate: streamRate}
	// The tracked relations are registered for their schemas only; the
	// synopsis's population is the stream.
	for _, name := range []string{"S1", "S2"} {
		r := workload.ZipfRelation(rng, name, 0.8, 500, 100, workload.MapRandom)
		p.base[name] = r
		p.setup = append(p.setup, csvCall(r))
	}
	p.inc = server.SynopsisRequest{Kind: "incremental", Relations: map[string]int{"S1": 0, "S2": 0}, Capacity: streamCap, Seed: seed + 3}
	p.setup = append(p.setup, jsonCall("/v1/synopses/live", p.inc))
	// Pre-fill needs a little over capacity/(1−deleteFrac) events per
	// relation; the timed phase needs rate × seconds more, for runs of
	// up to 60 s.
	p.events = streamEvents(rng, "live", []string{"S1", "S2"}, 2*streamCap+int(streamRate*60/2))
	// The reader cycles through plain join counts whose selections cut
	// the join domain at different points, so the answer-quality metrics
	// average over many partly independent errors of the one sample.
	qs := []string{"count(join(S1, S2, on a = a))"}
	for c := 50; c < 500; c += 50 {
		qs = append(qs,
			fmt.Sprintf("count(join(select(S1, a < %d), S2, on a = a))", c),
			fmt.Sprintf("count(join(S1, select(S2, a >= %d), on a = a))", c),
			fmt.Sprintf("count(join(select(S1, a >= %d), select(S2, a < %d), on a = a))", c/2, 500-c/2))
	}
	for i, q := range qs {
		p.fixed = append(p.fixed, newEstReq(server.EstimateRequest{Query: q, Synopsis: "live", Seed: int64(i + 1)}))
	}
	p.timed = func(i int) *estReq { return p.fixed[i%len(p.fixed)] }
	return p
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
