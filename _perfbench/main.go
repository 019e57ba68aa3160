// Command perfbench is relest's service benchmark. It starts the real
// relestd binary as a subprocess, drives it over loopback from this one
// process, checks every answer, and prints one JSON result line.
//
// Usage (from the repository root, after building relestd):
//
//	perfbench -relestd .bench_build/relestd -out .bench_build \
//	    --workload hot-repeat --seed 1 --seconds 10 --trace 0
//
// perfbench/run.sh builds both binaries and runs this. With --trace 0
// the result carries the end-to-end metrics; with --trace 1 it carries
// the per-layer metrics of a separate traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	res, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) (*result, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	relestd := fs.String("relestd", "", "path to the relestd binary")
	out := fs.String("out", ".bench_build", "directory for temp files and trace spans")
	name := fs.String("workload", "", "hot-repeat, adhoc-sharded or stream-rw")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *relestd == "" {
		return nil, fmt.Errorf("-relestd is required")
	}
	if *seconds <= 0 || *seconds > 600 {
		return nil, fmt.Errorf("--seconds %v outside (0, 600]", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	bin, err := filepath.Abs(*relestd)
	if err != nil {
		return nil, err
	}
	p, err := newPlan(*name, *seed)
	if err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	if conns > 2 {
		// Two closed-loop clients (or one reader and one writer) are all
		// any workload runs; more connections would only idle.
		conns = 2
	}
	b := &bench{relestd: bin, out: *out, seed: *seed, seconds: *seconds, conns: conns}
	var res *result
	var notes []string
	if *trace == 1 {
		res, notes, err = b.runTraced(p)
	} else {
		res, notes, err = b.runUntraced(p)
	}
	if err != nil {
		return nil, err
	}
	printTable(stdout, p.name, res, notes)
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(line))
	return res, nil
}

// printTable writes the human-readable report that precedes the JSON
// line.
func printTable(w io.Writer, name string, res *result, notes []string) {
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d, correct %v\n", name, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for _, n := range notes {
		fmt.Fprintln(w, "  note:", n)
	}
}

// runUntraced is the timed run: set up three times, measure the timed
// phase on the last set-up, then check the answers.
func (b *bench) runUntraced(p *plan) (*result, []string, error) {
	var setups []float64
	var l *live
	for i := 0; i < setupReps; i++ {
		cur, err := b.setup(p)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, cur.setupSec)
		if i < setupReps-1 {
			if err := cur.close(); err != nil {
				return nil, nil, fmt.Errorf("stopping relestd after set-up %d: %w", i+1, err)
			}
			continue
		}
		l = cur
	}
	tMeasure := time.Now()
	ph, cps, rss, err := b.measure(p, l)
	if cerr := l.close(); err == nil && cerr != nil {
		err = fmt.Errorf("stopping relestd: %w", cerr)
	}
	if err != nil {
		return nil, nil, err
	}
	tVerify := time.Now()
	q, err := b.verify(p, ph, cps)
	if err != nil {
		return nil, nil, err
	}
	verifySec := time.Since(tVerify).Seconds()
	measureSec := tVerify.Sub(tMeasure).Seconds()

	failed := ph.rfails + ph.wfail + len(q.mismatch)
	attempted := ph.reads + ph.writes + q.n + len(q.mismatch)
	res := &result{Attempted: attempted, Failed: failed, Correct: failed == 0, Metrics: map[string]metric{}}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	p50, err := quantile(ph.readLat, 0.5)
	if err != nil {
		return nil, nil, fmt.Errorf("read latency: %w", err)
	}
	p99, err := windowedP99(ph.readLat)
	if err != nil {
		return nil, nil, fmt.Errorf("read latency: %w", err)
	}
	timedOps := float64(len(ph.readLat) + len(ph.writeLat))
	set("setup_s", "s", median(setups))
	set("lat_p50_ms", "ms", p50)
	set("lat_p99_ms", "ms", p99)
	set("throughput_qps", "1/s", float64(len(ph.readLat))/ph.elapsed)
	set("cpu_ms_per_op", "ms", 1000*ratio(ph.daemonCPU, timedOps))
	set("peak_rss_mb", "MiB", rss)
	set("ok_pct", "%", 100*float64(attempted-failed)/float64(attempted))
	set("rel_err_median_pct", "%", median(q.relErr))
	set("ci_coverage_pct", "%", 100*ratio(float64(q.covered), float64(q.n)))
	if p.capacity > 0 {
		w50, err := quantile(ph.writeLat, 0.5)
		if err != nil {
			return nil, nil, fmt.Errorf("write latency: %w", err)
		}
		w99, err := windowedP99(ph.writeLat)
		if err != nil {
			return nil, nil, fmt.Errorf("write latency: %w", err)
		}
		set("write_p50_ms", "ms", w50)
		set("write_p99_ms", "ms", w99)
	}

	notes := []string{
		fmt.Sprintf("fail_pct %.4f %% (%d of %d requests failed, were refused or failed validation)", 100*float64(failed)/float64(attempted), failed, attempted),
		fmt.Sprintf("samples: %d reads, %d writes, %d answers scored; set-up times %v s", len(ph.readLat), len(ph.writeLat), q.n, setups),
		fmt.Sprintf("host steal during the timed phase: %.2f CPU-s", ph.steal),
		fmt.Sprintf("wall: timed phase %.2f s, measuring in all %.2f s, verifying %.2f s", ph.elapsed, measureSec, verifySec),
		fmt.Sprintf("load.client_cpu_ms_per_op %.4f ms (beside cpu_ms_per_op)", 1000*ratio(ph.clientCPU, timedOps)),
	}
	if len(ph.writeLag) > 0 {
		if lag, err := quantile(ph.writeLag, 0.99); err == nil {
			notes = append(notes, fmt.Sprintf("load.gen_lag_p99_ms %.4f ms", lag))
		}
	}
	for _, e := range append(ph.errs, q.mismatch...) {
		notes = append(notes, "FAIL "+e)
	}
	return res, notes, nil
}

// measure runs the load on a set-up relestd, then the passes the answer
// checks read: the audit synopses of a read-only workload, or on
// stream-rw the fixed list again after the writer stopped. It returns the
// checkpoints to verify and relestd's peak RSS at the end of the load.
func (b *bench) measure(p *plan, l *live) (*phase, []checkpoint, float64, error) {
	ph, err := b.timed(p, l)
	if err != nil {
		return nil, nil, 0, err
	}
	rss, err := procPeakRSS(l.d.pid)
	if err != nil {
		return nil, nil, 0, err
	}
	if p.capacity == 0 {
		for _, c := range p.auditSetup {
			if _, err := l.d.mustOK(c.method, c.path, c.ctype, c.body); err != nil {
				return nil, nil, 0, err
			}
		}
		bodies, err := b.pass(l.d, p.audit)
		if err != nil {
			return nil, nil, 0, err
		}
		reqs := append(append([]*estReq(nil), p.fixed...), p.audit...)
		return ph, []checkpoint{{reqs: reqs, bodies: append(append([][]byte(nil), l.warm...), bodies...), cat: baseCatalog(p)}}, rss, nil
	}
	bodies, err := b.pass(l.d, p.fixed)
	if err != nil {
		return nil, nil, 0, err
	}
	cps, err := streamCheckpoints(p, l.prefill, l.warm, ph.clean, ph.sent, bodies)
	if err != nil {
		return nil, nil, 0, err
	}
	return ph, cps, rss, nil
}

// pass sends each request once, in order, and returns the bodies.
func (b *bench) pass(d *daemon, reqs []*estReq) ([][]byte, error) {
	bodies := make([][]byte, 0, len(reqs))
	for _, r := range reqs {
		_, body, err := d.do(http.MethodPost, "/v1/estimate", "application/json", r.body)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	return bodies, nil
}

// verify checks the checkpoints (and adhoc-sharded's sampled timed
// answers) against the in-process references and scores them against
// the exact answers.
func (b *bench) verify(p *plan, ph *phase, cps []checkpoint) (*quality, error) {
	q := &quality{}
	if p.capacity == 0 {
		ip, err := newInproc(p)
		if err != nil {
			return nil, err
		}
		defer ip.close()
		ref, err := staticRef(p, ip)
		if err != nil {
			return nil, err
		}
		for i := range cps {
			cps[i].ref = ref
		}
		idx := make([]int, 0, len(ph.sampled))
		for i := range ph.sampled {
			idx = append(idx, i)
		}
		sort.Ints(idx)
		for _, i := range idx {
			r := p.timed(i)
			if status, want := ip.estimate(r); status != http.StatusOK || string(want) != string(ph.sampled[i]) {
				q.mismatch = append(q.mismatch, fmt.Sprintf("timed read %d %q: relestd %s, in-process %d %s", i, r.wire.Query, ph.sampled[i], status, want))
			}
		}
	}
	for _, cp := range cps {
		q.check(cp)
	}
	if len(q.relErr) == 0 {
		return nil, fmt.Errorf("no answer could be scored: %v", q.mismatch)
	}
	return q, nil
}
