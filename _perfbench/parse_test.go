package main

import (
	"math"
	"strings"
	"testing"
)

func TestQuantileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // reversed: quantile must sort
	}
	got, err := quantile(xs, 0.99)
	if err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	if got, err := quantile(xs, 0.5); err != nil || got != 500 {
		t.Fatalf("p50 of 1..1000 = %v, %v; want 500", got, err)
	}
	// 999 samples: rank ceil(0.99·999) = 990 leaves 9 beyond it.
	if _, err := quantile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Fatal("quantile of no samples must fail")
	}
	if _, err := quantile(xs[:15], 0.5); err == nil {
		t.Fatal("p50 of 15 samples has 7 beyond it and must be refused")
	}
}

func TestWindowedP99(t *testing.T) {
	// Five windows of 1000 samples; one window holds a burst whose p99 is
	// far above the rest, and the median of the window p99s ignores it.
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(i%1000) / 1000
		if i >= 2000 && i < 3000 {
			xs[i] += 100
		}
	}
	got, err := windowedP99(xs)
	if err != nil || got != 0.989 {
		t.Fatalf("windowed p99 = %v, %v; want 0.989", got, err)
	}
	if _, err := windowedP99(xs[:999]); err == nil {
		t.Fatal("999 samples make one window with 9 beyond its p99 and must be refused")
	}
	if got, err := windowedP99(xs[:1000]); err != nil || got != 0.989 {
		t.Fatalf("one window: p99 = %v, %v; want 0.989", got, err)
	}
	// Twenty windows, a burst in each of six: the median still ignores
	// them all.
	long := make([]float64, 20000)
	for i := range long {
		long[i] = float64(i%1000) / 1000
		if w := i / 1000; w > 0 && w%3 == 0 {
			long[i] += 100
		}
	}
	if got, err := windowedP99(long); err != nil || got != 0.989 {
		t.Fatalf("twenty windows: p99 = %v, %v; want 0.989", got, err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	stat := "4242 (rel estd (x)) S 1 4242 4242 0 -1 4194560 3034 0 0 0 1234 567 0 0 20 0 9 0 1000 123456 789 18446744073709551615"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := (1234.0 + 567.0) / clockTicks; math.Abs(got-want) > 1e-9 {
		t.Fatalf("cpu = %v, want %v", got, want)
	}
	if _, err := parseStatCPU("4242 (x) S 1 2"); err == nil {
		t.Fatal("a truncated stat line must fail")
	}
	if _, err := parseStatCPU("no command"); err == nil {
		t.Fatal("a stat line without ')' must fail")
	}
}

func TestParseStatusHWM(t *testing.T) {
	status := "Name:\trelestd\nVmPeak:\t  800000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n"
	got, err := parseStatusHWM(status)
	if err != nil || got != 20 {
		t.Fatalf("VmHWM = %v, %v; want 20 MiB", got, err)
	}
	if _, err := parseStatusHWM("Name:\tx\n"); err == nil {
		t.Fatal("a status without VmHWM must fail")
	}
	if _, err := parseStatusHWM("VmHWM:\t 12 MB\n"); err == nil {
		t.Fatal("a VmHWM line in an unknown unit must fail")
	}
}

// TestPromDelta covers the single-node exposition and the coordinator's
// merged one, where every shard family carries a shard label.
func TestPromDelta(t *testing.T) {
	before := mustProm(t, `# TYPE relest_plan_built_total counter
relest_plan_built_total 10
# TYPE relestd_request_seconds histogram
relestd_request_seconds_bucket{mode="plain",le="0.001"} 3
relestd_request_seconds_sum{mode="plain"} 0.5
relestd_request_seconds_count{mode="plain"} 4
# TYPE relest_tier_answered_total counter
relest_tier_answered_total{tier="sketch"} 1
`)
	after := mustProm(t, `# TYPE relest_plan_built_total counter
relest_plan_built_total 25
# TYPE relestd_request_seconds histogram
relestd_request_seconds_bucket{mode="plain",le="0.001"} 5
relestd_request_seconds_sum{mode="plain"} 1.5
relestd_request_seconds_count{mode="plain"} 9
relestd_request_seconds_sum{mode="deadline"} 7
# TYPE relest_tier_answered_total counter
relest_tier_answered_total{tier="sample"} 4
relest_tier_answered_total{tier="sketch"} 3
`)
	d := promDelta(before, after)
	if got := d.sum("relest_plan_built_total"); got != 15 {
		t.Errorf("plan_built delta = %v, want 15", got)
	}
	if got := d.sum("relestd_request_seconds_sum", `mode="plain"`); got != 1 {
		t.Errorf("plain seconds delta = %v, want 1", got)
	}
	if got := d.sum("relestd_request_seconds_count", `mode="plain"`); got != 5 {
		t.Errorf("plain count delta = %v, want 5", got)
	}
	if got := d.sum("relest_tier_answered_total"); got != 6 {
		t.Errorf("tier delta = %v, want 6 (a series new in after counts from 0)", got)
	}
	if got := d.sum("relest_tier_answered_total", `tier="sketch"`); got != 2 {
		t.Errorf("sketch delta = %v, want 2", got)
	}

	merged := `# TYPE relestd_shard_fanout_total counter
relestd_shard_fanout_total 8
# TYPE relest_plan_built_total counter
relest_plan_built_total{shard="0"} 3
relest_plan_built_total{shard="1"} 4
relest_plan_built_total{shard="10"} 100
# TYPE relestd_request_seconds histogram
relestd_request_seconds_sum{mode="plain",shard="0"} 0.25
relestd_request_seconds_sum{mode="plain",shard="1"} 0.75
relestd_request_seconds_count{mode="plain",shard="0"} 2
relestd_request_seconds_count{mode="plain",shard="1"} 2
`
	m := mustProm(t, merged)
	if got := m.sum("relest_plan_built_total"); got != 107 {
		t.Errorf("cluster-wide plan_built = %v, want 107", got)
	}
	if got := m.sum("relest_plan_built_total", `shard="1"`); got != 4 {
		t.Errorf("shard 1 plan_built = %v, want 4 (shard=\"10\" must not match)", got)
	}
	if got := ratio(m.sum("relestd_request_seconds_sum", `mode="plain"`), m.sum("relestd_request_seconds_count", `mode="plain"`)); got != 0.25 {
		t.Errorf("mean shard request seconds = %v, want 0.25", got)
	}
	if got := m.sum("relestd_shard_fanout_total"); got != 8 {
		t.Errorf("fanout = %v, want 8", got)
	}
	if _, err := parseProm("relest_x_total notanumber\n"); err == nil {
		t.Error("a non-numeric value must fail")
	}
	if _, err := parseProm("justaname\n"); err == nil {
		t.Error("a line without a value must fail")
	}
}

func mustProm(t *testing.T, text string) promSample {
	t.Helper()
	p, err := parseProm(strings.TrimSpace(text))
	if err != nil {
		t.Fatal(err)
	}
	return p
}
