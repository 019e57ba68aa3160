package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"relest/internal/algebra"
	"relest/internal/estimator"
	"relest/internal/relation"
	"relest/internal/server"
)

// bench holds one invocation's settings.
type bench struct {
	relestd string
	out     string // build directory: temp files and trace spans go here
	seed    int64
	seconds float64
	conns   int // client connections: at most the CPU count
}

// setupReps is how many times an untraced run sets up from scratch;
// setup_s is the median.
const setupReps = 3

// live is a relestd after set-up.
type live struct {
	d        *daemon
	tmp      string         // snapshot directory (stream-rw), removed on close
	warm     [][]byte       // relestd's bodies for the fixed list, from the warm-up pass
	prefill  int            // stream events sent during set-up
	sizes    map[string]int // stream-rw: reservoir sizes after the last event
	setupSec float64
}

func (l *live) close() error {
	err := l.d.stop()
	if l.tmp != "" {
		if rerr := os.RemoveAll(l.tmp); err == nil {
			err = rerr
		}
	}
	return err
}

// setup spawns relestd and brings it to the state the timed phase starts
// from: relations uploaded, synopses created, the stream pre-filled until
// both reservoirs hold capacity tuples, and one pass over the fixed list.
func (b *bench) setup(p *plan) (*live, error) {
	t0 := time.Now()
	args := p.daemonArgs
	l := &live{}
	if p.capacity > 0 {
		tmp := filepath.Join(b.out, "tmp")
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(tmp, "snapshot-")
		if err != nil {
			return nil, err
		}
		l.tmp = dir
		args = append(append([]string(nil), args...), "-snapshot-dir", dir)
	}
	d, err := startDaemon(b.relestd, newClient(b.conns), args...)
	if err != nil {
		if l.tmp != "" {
			_ = os.RemoveAll(l.tmp)
		}
		return nil, err
	}
	l.d = d
	fail := func(err error) (*live, error) {
		_ = l.close()
		return nil, err
	}
	for _, c := range p.setup {
		if _, err := d.mustOK(c.method, c.path, c.ctype, c.body); err != nil {
			return fail(err)
		}
	}
	if p.capacity > 0 {
		for !l.full(p) {
			if l.prefill >= len(p.events) {
				return fail(fmt.Errorf("stream exhausted after %d events before the reservoirs filled", l.prefill))
			}
			c := p.events[l.prefill].call
			raw, err := d.mustOK(c.method, c.path, c.ctype, c.body)
			if err != nil {
				return fail(err)
			}
			l.prefill++
			var info server.SynopsisInfo
			if err := json.Unmarshal(raw, &info); err != nil {
				return fail(fmt.Errorf("decoding stream response: %w", err))
			}
			l.sizes = info.Relations
		}
	}
	for _, r := range p.fixed {
		status, body, err := d.do(http.MethodPost, "/v1/estimate", "application/json", r.body)
		if err != nil {
			return fail(err)
		}
		if _, err := checkAnswer(status, body); err != nil {
			return fail(fmt.Errorf("warm-up %q: %w", r.wire.Query, err))
		}
		l.warm = append(l.warm, body)
	}
	l.setupSec = time.Since(t0).Seconds()
	return l, nil
}

// full reports whether every reservoir of the stream holds capacity
// tuples.
func (l *live) full(p *plan) bool {
	for name := range p.inc.Relations {
		if l.sizes[name] < p.capacity {
			return false
		}
	}
	return true
}

// phase is what the timed phase measured.
type phase struct {
	elapsed       float64   // seconds
	readLat       []float64 // ms, successful reads in completion order
	reads, rfails int
	writeLat      []float64 // ms from each event's due time
	writeLag      []float64 // ms the generator sent each event late
	writes, wfail int
	sent          int // stream events sent (stream-rw: including the pre-fill)
	daemonCPU     float64
	clientCPU     float64
	steal         float64 // host steal seconds over the phase, all CPUs
	errs          []string
	sampled       map[int][]byte // adhoc-sharded: every 64th timed read's body
	// clean holds stream-rw reads during which no write was in flight,
	// so the state they read is exactly the first n events.
	clean []cleanRead
}

// cleanRead is a timed stream-rw read of fixed request i that saw the
// state after exactly n stream events.
type cleanRead struct {
	i, n int
	body []byte
}

// timedRead is one successful read: when it completed, and its latency.
type timedRead struct {
	at time.Duration
	ms float64
}

// progress tracks the stream writer: events started and acknowledged.
type progress struct{ started, acked atomic.Int64 }

func (ph *phase) fail(format string, args ...any) {
	if len(ph.errs) < 10 {
		ph.errs = append(ph.errs, fmt.Sprintf(format, args...))
	}
}

// timed runs the closed-loop readers (and, on stream-rw, the open-loop
// writer) for the configured seconds.
func (b *bench) timed(p *plan, l *live) (*phase, error) {
	ph := &phase{sent: l.prefill, sampled: map[int][]byte{}}
	var err error
	quietGC(func() { err = b.timedLoad(p, l, ph) })
	return ph, err
}

func (b *bench) timedLoad(p *plan, l *live, ph *phase) error {
	steal0, err := hostSteal()
	if err != nil {
		return err
	}
	cpu0, err := procCPU(l.d.pid)
	if err != nil {
		return err
	}
	self0, err := procCPU("self")
	if err != nil {
		return err
	}
	start := time.Now()
	deadline := start.Add(time.Duration(b.seconds * float64(time.Second)))
	var (
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
		prog progress
		done []timedRead
	)
	for c := 0; c < p.readers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []timedRead
			n, fails := 0, 0
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				r := p.timed(i)
				acked := prog.acked.Load()
				t0 := time.Now()
				status, body, err := l.d.do(http.MethodPost, "/v1/estimate", "application/json", r.body)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				clean := prog.started.Load() == acked
				n++
				if err == nil {
					_, err = checkAnswer(status, body)
				}
				if err == nil && p.shards == 0 && p.capacity == 0 {
					// hot-repeat: relestd is deterministic, so every
					// repeat must equal the warm-up body byte for byte.
					if want := l.warm[i%len(l.warm)]; string(body) != string(want) {
						err = fmt.Errorf("body differs from the warm-up answer for %q", r.wire.Query)
					}
				}
				if err != nil {
					fails++
					mu.Lock()
					ph.fail("read %q: %v", r.wire.Query, err)
					mu.Unlock()
					continue
				}
				lat = append(lat, timedRead{time.Since(start), ms})
				switch {
				case p.shards > 0 && i%64 == 0:
					mu.Lock()
					ph.sampled[i] = body
					mu.Unlock()
				case p.capacity > 0 && clean:
					mu.Lock()
					ph.clean = append(ph.clean, cleanRead{i: i % len(p.fixed), n: l.prefill + int(acked), body: body})
					mu.Unlock()
				}
			}
			mu.Lock()
			done = append(done, lat...)
			ph.reads += n
			ph.rfails += fails
			mu.Unlock()
		}()
	}
	if p.capacity > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.writer(l.d, p.events[l.prefill:], p.writeRate, deadline, ph, &mu, &prog)
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start).Seconds()
	sort.Slice(done, func(a, b int) bool { return done[a].at < done[b].at })
	for _, r := range done {
		ph.readLat = append(ph.readLat, r.ms)
	}
	cpu1, err := procCPU(l.d.pid)
	if err != nil {
		return err
	}
	self1, err := procCPU("self")
	if err != nil {
		return err
	}
	steal1, err := hostSteal()
	if err != nil {
		return err
	}
	ph.daemonCPU, ph.clientCPU, ph.steal = cpu1-cpu0, self1-self0, steal1-steal0
	return nil
}

// writer sends events open-loop at rate per second on one connection,
// in order, until the events or the deadline run out. Each event is
// timed from when it was due, so a stall also charges the events queued
// behind it; the generator's own lateness is recorded separately.
func (b *bench) writer(d *daemon, events []streamEvent, rate float64, deadline time.Time, ph *phase, mu *sync.Mutex, prog *progress) {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var lat, lag []float64
	n, fails := 0, 0
	for k, ev := range events {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(deadline) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		prog.started.Add(1)
		status, body, err := d.do(ev.call.method, ev.call.path, ev.call.ctype, ev.call.body)
		done := time.Now()
		prog.acked.Add(1)
		n++
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err != nil {
			fails++
			mu.Lock()
			ph.fail("write %d: %v", k, err)
			mu.Unlock()
			continue
		}
		lat = append(lat, float64(done.Sub(due))/float64(time.Millisecond))
		lag = append(lag, float64(sent.Sub(due))/float64(time.Millisecond))
	}
	mu.Lock()
	ph.writeLat, ph.writeLag = append(ph.writeLat, lat...), append(ph.writeLag, lag...)
	ph.writes += n
	ph.wfail += fails
	ph.sent += n
	mu.Unlock()
}

// checkpoint is one set of relestd answers to check: the requests, the
// bodies relestd returned, the relations their exact answers run over,
// and the in-process reference answering one request with the expected
// body (nil when only the value is checked) and value (NaN when only the
// body is checked).
type checkpoint struct {
	reqs   []*estReq
	bodies [][]byte
	cat    algebra.MapCatalog
	ref    func(r *estReq) ([]byte, float64, error)
}

// quality scores checkpoints against exact answers.
type quality struct {
	relErr   []float64 // |estimate − exact| / exact, percent
	covered  int
	n        int
	mismatch []string
}

// check compares each answer with the in-process reference, byte for
// byte and bit for bit, then scores it against the exact answer.
func (q *quality) check(cp checkpoint) {
	exact := map[string]float64{}
	for i, r := range cp.reqs {
		a, err := checkAnswer(http.StatusOK, cp.bodies[i])
		if err != nil {
			q.mismatch = append(q.mismatch, fmt.Sprintf("%q on %s: %v", r.wire.Query, r.wire.Synopsis, err))
			continue
		}
		wantBody, wantValue, err := cp.ref(r)
		switch {
		case err != nil:
			q.mismatch = append(q.mismatch, fmt.Sprintf("%q on %s: reference: %v", r.wire.Query, r.wire.Synopsis, err))
			continue
		case wantBody != nil && string(wantBody) != string(cp.bodies[i]):
			q.mismatch = append(q.mismatch, fmt.Sprintf("%q on %s: relestd body %s differs from in-process %s", r.wire.Query, r.wire.Synopsis, cp.bodies[i], wantBody))
			continue
		case !math.IsNaN(wantValue) && !sameBits(wantValue, a.Value):
			q.mismatch = append(q.mismatch, fmt.Sprintf("%q on %s: relestd value %v, in-process estimator %v", r.wire.Query, r.wire.Synopsis, a.Value, wantValue))
			continue
		}
		x, ok := exact[r.wire.Query]
		if !ok {
			if x, err = exactAnswer(cp.cat, r); err != nil {
				q.mismatch = append(q.mismatch, fmt.Sprintf("%q: exact answer: %v", r.wire.Query, err))
				continue
			}
			exact[r.wire.Query] = x
		}
		q.n++
		if x != 0 {
			q.relErr = append(q.relErr, 100*math.Abs(a.Value-x)/math.Abs(x))
		}
		if a.Lo <= x && x <= a.Hi {
			q.covered++
		}
	}
}

// baseCatalog holds the generated relations by name.
func baseCatalog(p *plan) algebra.MapCatalog {
	cat := algebra.MapCatalog{}
	for name, r := range p.base {
		cat[name] = r
	}
	return cat
}

// streamStates replays the stream once, in send order, into an
// in-process incremental synopsis and calls visit at each requested
// prefix length (ascending) with the synopsis snapshot and the live
// tuples of every streamed relation.
func streamStates(p *plan, ns []int, visit func(n int, snap *estimator.Synopsis, cat algebra.MapCatalog) error) error {
	inc, err := incrementalReplay(p, nil, nil)
	if err != nil {
		return err
	}
	live := map[string]map[string]relation.Tuple{}
	for name := range p.inc.Relations {
		live[name] = map[string]relation.Tuple{}
	}
	applied := 0
	for _, n := range ns {
		for ; applied < n; applied++ {
			op := p.events[applied].op
			k := op.Tuple.Key(nil)
			if op.Delete {
				err = inc.Delete(op.Rel, op.Tuple)
				delete(live[op.Rel], k)
			} else {
				err = inc.Insert(op.Rel, op.Tuple)
				live[op.Rel][k] = op.Tuple
			}
			if err != nil {
				return err
			}
		}
		snap, err := inc.Snapshot()
		if err != nil {
			return err
		}
		cat := baseCatalog(p)
		for name, tuples := range live {
			r := relation.New(name, p.base[name].Schema())
			for _, t := range tuples {
				r.MustAppend(t)
			}
			cat[name] = r
		}
		if err := visit(n, snap, cat); err != nil {
			return err
		}
	}
	return nil
}

// streamCheckpoints builds the stream-rw checkpoints: the warm-up pass
// after the pre-fill, up to maxClean reads of the timed phase that saw
// no write in flight (spread evenly over the phase), and the pass after
// the writer stopped.
func streamCheckpoints(p *plan, prefill int, warm [][]byte, clean []cleanRead, sent int, post [][]byte) ([]checkpoint, error) {
	const maxClean = 300
	sort.Slice(clean, func(a, b int) bool { return clean[a].n < clean[b].n })
	if len(clean) > maxClean {
		picked := make([]cleanRead, maxClean)
		for k := range picked {
			picked[k] = clean[k*len(clean)/maxClean]
		}
		clean = picked
	}
	type group struct {
		reqs   []*estReq
		bodies [][]byte
	}
	byN := map[int]*group{prefill: {reqs: p.fixed, bodies: warm}}
	ns := []int{prefill}
	for _, c := range clean {
		g := byN[c.n]
		if g == nil {
			g = &group{}
			byN[c.n] = g
			ns = append(ns, c.n)
		}
		g.reqs = append(g.reqs, p.fixed[c.i])
		g.bodies = append(g.bodies, c.body)
	}
	if g := byN[sent]; g != nil {
		g.reqs = append(g.reqs, p.fixed...)
		g.bodies = append(g.bodies, post...)
	} else {
		byN[sent] = &group{reqs: p.fixed, bodies: post}
		ns = append(ns, sent)
	}
	sort.Ints(ns)
	var cps []checkpoint
	err := streamStates(p, ns, func(n int, snap *estimator.Synopsis, cat algebra.MapCatalog) error {
		g := byN[n]
		cps = append(cps, checkpoint{reqs: g.reqs, bodies: g.bodies, cat: cat, ref: func(r *estReq) ([]byte, float64, error) {
			est, err := estimatorAnswer(snap, r.wire)
			return nil, est.Value, err
		}})
		return nil
	})
	return cps, err
}

// staticRef answers requests from the in-process deployment (loaded with
// the plan's set-up and audit synopses) and, for the single-node
// synopses the fixed list reads, the in-process estimator.
func staticRef(p *plan, ip *inproc) (func(r *estReq) ([]byte, float64, error), error) {
	if err := ip.load(append(append([]call(nil), p.setup...), p.auditSetup...)); err != nil {
		return nil, err
	}
	syns := map[string]*estimator.Synopsis{}
	return func(r *estReq) ([]byte, float64, error) {
		status, body := ip.estimate(r)
		if status != http.StatusOK {
			return nil, 0, fmt.Errorf("in-process status %d: %s", status, body)
		}
		spec, ok := p.static[r.wire.Synopsis]
		if !ok || p.shards > 0 {
			// A sharded answer merges one estimate per shard; the
			// in-process coordinator is its reference. Audit copies
			// are checked against the in-process server only.
			return body, math.NaN(), nil
		}
		syn := syns[r.wire.Synopsis]
		if syn == nil {
			var err error
			if syn, err = staticSynopsis(p, spec); err != nil {
				return nil, 0, err
			}
			syns[r.wire.Synopsis] = syn
		}
		est, err := estimatorAnswer(syn, r.wire)
		return body, est.Value, err
	}, nil
}

// quietGC runs fn with the load generator's garbage collector held off
// (up to a 512 MiB heap), after a collection, so that client-side GC
// pauses do not land in the measured latencies.
func quietGC(fn func()) {
	runtime.GC()
	limit := debug.SetMemoryLimit(512 << 20)
	percent := debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(percent)
		debug.SetMemoryLimit(limit)
	}()
	fn()
}
