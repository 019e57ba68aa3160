package estimator

import (
	"context"
	"fmt"
	"testing"

	"relest/internal/obs"
)

// sameGroups reports whether two group-by answers agree bit for bit, in
// order.
func sameGroups(a, b []GroupEstimate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Value.Equal(b[i].Value) || !sameBits(a[i].Count, b[i].Count) {
			return false
		}
	}
	return true
}

// TestSampleTierHandleMatchesFunctions pins the handle's sample-tier
// contract at workers {1,4}: a TierSampleOnly handle's Count, Sum, Avg and
// GroupCount are bit-identical to CountContext, SumContext, AvgContext and
// GroupCountContext under the same options, and report the sample tier.
func TestSampleTierHandleMatchesFunctions(t *testing.T) {
	expr, syn := drawnJoinSynopsis(t, 400, 300, 60, 17)
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		opts := Options{Variance: VarSplitSample, Seed: 5, Workers: workers}
		h := NewEstimator(syn, WithOptions(opts), WithTierPolicy(TierSampleOnly))
		req := Request{Expr: expr, Col: "b"}
		label := func(what string) string { return fmt.Sprintf("workers=%d %s", workers, what) }
		wantSample := func(what, tier string) {
			if tier != TierAnsweredSample {
				t.Errorf("%s answered from tier %q, want sample", label(what), tier)
			}
		}

		cnt, err := h.Count(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := CountContext(ctx, expr, syn, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameEstimate(t, label("Count vs CountContext"), cnt.Estimate, want)
		wantSample("Count", cnt.Tier.Answered)

		sum, err := h.Sum(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		wantSum, err := SumContext(ctx, expr, "b", syn, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameEstimate(t, label("Sum vs SumContext"), sum.Estimate, wantSum)
		wantSample("Sum", sum.Tier.Answered)

		avg, rep, err := h.Avg(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		wantAvg, err := AvgContext(ctx, expr, "b", syn, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(avg.Avg, wantAvg.Avg) {
			t.Errorf("%s: %v != %v", label("Avg vs AvgContext"), avg.Avg, wantAvg.Avg)
		}
		assertSameEstimate(t, label("Avg's Sum"), avg.Sum, wantAvg.Sum)
		assertSameEstimate(t, label("Avg's Count"), avg.Count, wantAvg.Count)
		wantSample("Avg", rep.Answered)

		groups, rep, err := h.GroupCount(ctx, Request{Expr: expr, Col: "a"})
		if err != nil {
			t.Fatal(err)
		}
		wantGroups, err := GroupCountContext(ctx, expr, "a", syn, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !sameGroups(groups, wantGroups) {
			t.Errorf("%s:\n  %+v\n  %+v", label("GroupCount vs GroupCountContext"), groups, wantGroups)
		}
		wantSample("GroupCount", rep.Answered)
	}
}

// TestGroupCountHonoursHandleOptions: a group-by runs under the handle's
// options like every other aggregate. A live Collector sees the call's
// plan-cache traffic, and the groups are bit-identical at workers {1,4}.
func TestGroupCountHonoursHandleOptions(t *testing.T) {
	expr, syn := drawnJoinSynopsis(t, 400, 300, 60, 23)
	var first []GroupEstimate
	for _, workers := range []int{1, 4} {
		col := obs.NewCollector()
		h := NewEstimator(syn, WithOptions(Options{Workers: workers, Recorder: col}), WithTierPolicy(TierSampleOnly))
		groups, _, err := h.GroupCount(context.Background(), Request{Expr: expr, Col: "a"})
		if err != nil {
			t.Fatal(err)
		}
		if len(groups) == 0 {
			t.Fatalf("workers=%d: no groups", workers)
		}
		if got := col.Metrics().Counter("relest_plan_built_total").Value(); got < 1 {
			t.Errorf("workers=%d: relest_plan_built_total = %v, want >= 1 (the handle's recorder was dropped)", workers, got)
		}
		if first == nil {
			first = groups
		} else if !sameGroups(first, groups) {
			t.Errorf("workers=%d groups differ from workers=1:\n  %+v\n  %+v", workers, groups, first)
		}
	}
}
