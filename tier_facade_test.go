package relest_test

import (
	"context"
	"math"
	"testing"

	"relest"
)

// bitsEqual compares two floats by representation, distinguishing
// 0 from -0 and treating equal NaN payloads as equal — the standard the
// repo's goldens hold every worker count and recorder state to.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func requireSameEstimate(t *testing.T, label string, a, b relest.Estimate) {
	t.Helper()
	if !bitsEqual(a.Value, b.Value) || !bitsEqual(a.Variance, b.Variance) ||
		!bitsEqual(a.StdErr, b.StdErr) || !bitsEqual(a.Lo, b.Lo) || !bitsEqual(a.Hi, b.Hi) ||
		a.VarianceMethod != b.VarianceMethod || a.Terms != b.Terms {
		t.Errorf("%s: estimates differ\n  a=%+v\n  b=%+v", label, a, b)
	}
}

// TestFacadeLegacyBitIdentityMatrix pins the handle's sample-tier
// contract across the workers{1,4} matrix: a TierSampleOnly handle and a
// per-request TierSampleOnly override on an auto handle give the same
// bits, and a TierAuto handle answering a sketch-ineligible shape lands on
// those exact bits too — escalation reuses the sample-tier computation
// unchanged, it does not approximate it. Sum, Avg and GroupCount always
// report the sample tier.
func TestFacadeLegacyBitIdentityMatrix(t *testing.T) {
	rng := relest.Seeded(31)
	r1, r2 := relest.JoinPair(rng, relest.JoinPairSpec{
		Z1: 0.5, Z2: 0.5, Domain: 300, N1: 6_000, N2: 6_000,
		Correlation: relest.Independent,
	})
	syn, err := relest.Draw([]*relest.Relation{r1, r2}, 0.05, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	// A selection keeps every path on the sample tier even under TierAuto.
	sel := relest.Must(relest.Select(relest.BaseOf(r1),
		relest.Cmp{Col: "a", Op: relest.LT, Val: relest.Int(120)}))
	join := relest.Must(relest.Join(relest.BaseOf(r1), relest.BaseOf(r2),
		[]relest.On{{Left: "a", Right: "a"}}, nil, "R2"))
	ctx := context.Background()

	for _, workers := range []int{1, 4} {
		opts := relest.Options{Workers: workers}
		sample := sampleTier(syn, opts)
		auto := relest.New(syn, relest.WithOptions(opts))
		for _, c := range []struct {
			name string
			expr *relest.Expr
		}{{"selection", sel}, {"join", join}} {
			pinned, err := sample.Count(ctx, relest.Request{Expr: c.expr})
			if err != nil {
				t.Fatal(err)
			}
			if pinned.Tier.Answered != relest.TierAnsweredSample {
				t.Errorf("%s: sample-only handle reported tier %q", c.name, pinned.Tier.Answered)
			}

			// Per-request override on an auto handle: pinning the request to
			// the sample tier must reproduce the sample-only handle's bits.
			res, err := auto.Count(ctx, relest.Request{Expr: c.expr, Tier: relest.TierSampleOnly})
			if err != nil {
				t.Fatal(err)
			}
			requireSameEstimate(t, c.name+"/request override", pinned.Estimate, res.Estimate)
		}

		// TierAuto on a sketch-ineligible shape escalates into the exact
		// same sample-tier computation.
		pinnedSel, err := sample.Count(ctx, relest.Request{Expr: sel})
		if err != nil {
			t.Fatal(err)
		}
		res, err := auto.Count(ctx, relest.Request{Expr: sel})
		if err != nil {
			t.Fatal(err)
		}
		if res.Tier.Answered != relest.TierAnsweredSample {
			t.Fatalf("auto policy on a selection answered %q, want sample", res.Tier.Answered)
		}
		if !bitsEqual(res.Value, pinnedSel.Value) || !bitsEqual(res.StdErr, pinnedSel.StdErr) {
			t.Errorf("workers=%d: escalated selection %v±%v differs from sample tier %v±%v",
				workers, res.Value, res.StdErr, pinnedSel.Value, pinnedSel.StdErr)
		}

		// Aggregates carry no sketch form: every auto-handle answer is
		// sample-tier.
		sumRes, err := auto.Sum(ctx, relest.Request{Expr: sel, Col: "id"})
		if err != nil {
			t.Fatal(err)
		}
		if sumRes.Tier.Answered != relest.TierAnsweredSample {
			t.Errorf("workers=%d: sum answered %q", workers, sumRes.Tier.Answered)
		}
		if _, rep, err := auto.Avg(ctx, relest.Request{Expr: sel, Col: "id"}); err != nil {
			t.Fatal(err)
		} else if rep.Answered != relest.TierAnsweredSample {
			t.Errorf("workers=%d: avg answered %q", workers, rep.Answered)
		}
		groups, rep, err := auto.GroupCount(ctx, relest.Request{Expr: sel, Col: "a"})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Answered != relest.TierAnsweredSample || len(groups) == 0 {
			t.Errorf("workers=%d: group count answered %q with %d groups", workers, rep.Answered, len(groups))
		}
	}
}
