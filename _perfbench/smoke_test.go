package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload for a few seconds, timed and traced,
// against a relestd built from this checkout, and requires every answer
// to pass its checks and every metric of BENCHMARK.json to be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds relestd and runs each workload for seconds")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "relestd")
	if out, err := exec.Command("go", "build", "-o", bin, "relest/cmd/relestd").CombinedOutput(); err != nil {
		t.Fatalf("building relestd: %v\n%s", err, out)
	}
	endToEnd := []string{"setup_s", "lat_p50_ms", "lat_p99_ms", "throughput_qps", "cpu_ms_per_op", "peak_rss_mb",
		"ok_pct", "rel_err_median_pct", "ci_coverage_pct"}
	for _, name := range []string{"hot-repeat", "adhoc-sharded", "stream-rw"} {
		for _, traced := range []bool{false, true} {
			p, err := newPlan(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			// Faster stream writes so a four-second run still holds the
			// 1000 write samples the p99 rule needs.
			p.writeRate = 300
			b := &bench{relestd: bin, out: dir, seed: 7, seconds: 4, conns: 2}
			run := b.runUntraced
			if traced {
				run = b.runTraced
			}
			res, notes, err := run(p)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1000 {
				t.Fatalf("%s (traced %v): correct %v, %d of %d failed: %v", name, traced, res.Correct, res.Failed, res.Attempted, notes)
			}
			if traced {
				if _, ok := res.Metrics["trace.overhead_pct"]; !ok || len(res.Metrics) != 36 {
					t.Errorf("%s traced: %d per-layer metrics, want 36 with trace.overhead_pct", name, len(res.Metrics))
				}
				continue
			}
			want := endToEnd
			if p.capacity > 0 {
				want = append(want, "write_p50_ms", "write_p99_ms")
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s: %d end-to-end metrics, want %d", name, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := res.Metrics[m]; !ok || v.Value <= 0 {
					t.Errorf("%s: metric %s = %+v, want a positive value", name, m, v)
				}
			}
		}
	}
}
