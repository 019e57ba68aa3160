package estimator

import (
	"context"
	"fmt"
	"time"

	"relest/internal/algebra"
	"relest/internal/obs"
)

// Estimator is the unified estimation handle: one synopsis, one set of
// evaluation options, one tier policy, answering every request from the
// cheapest tier that meets its precision target. It is the one entry
// point for plain COUNT, SUM, AVG and GROUP BY estimation; under
// TierSampleOnly each method is exactly the package's sample-tier
// function (CountContext, SumContext, AvgContext, GroupCountContext)
// over the handle's options.
//
// A handle is cheap and immutable after construction; it is safe for
// concurrent use exactly when its synopsis is (static synopses are —
// EnsureSketches is the only internal mutation and is mutex-guarded and
// idempotent).
type Estimator struct {
	syn       *Synopsis
	opts      Options
	policy    TierPolicy
	precision float64
}

// EstimatorOption configures a handle at construction.
type EstimatorOption func(*Estimator)

// WithOptions sets the evaluation options (variance method, confidence,
// workers, recorder, ...) used by every request on the handle.
func WithOptions(opts Options) EstimatorOption {
	return func(e *Estimator) { e.opts = opts }
}

// WithTierPolicy sets the handle's default tier policy (TierAuto when
// unset); individual requests override it via Request.Tier.
func WithTierPolicy(p TierPolicy) EstimatorOption {
	return func(e *Estimator) { e.policy = p }
}

// WithPrecision sets the handle's default target relative CI half-width
// for accepting sketch-tier answers (DefaultPrecision when unset);
// individual requests override it via Request.Precision.
func WithPrecision(w float64) EstimatorOption {
	return func(e *Estimator) { e.precision = w }
}

// NewEstimator builds an estimation handle over the synopsis. Unless the
// policy is TierSampleOnly it also builds the synopsis's sketch tier
// (idempotent; one full scan of each retained base relation the first
// time).
func NewEstimator(syn *Synopsis, eopts ...EstimatorOption) *Estimator {
	e := &Estimator{syn: syn, policy: TierAuto}
	for _, o := range eopts {
		o(e)
	}
	if e.policy == TierDefault {
		e.policy = TierAuto
	}
	if e.precision <= 0 {
		e.precision = DefaultPrecision
	}
	if e.policy != TierSampleOnly {
		syn.EnsureSketches()
	}
	return e
}

// Synopsis returns the handle's synopsis.
func (e *Estimator) Synopsis() *Synopsis { return e.syn }

// Request is one estimation request against a handle.
type Request struct {
	// Expr is the π-free relational algebra expression.
	Expr *algebra.Expr
	// Col names the aggregated column (Sum/Avg) or grouping column
	// (GroupCount); ignored by Count.
	Col string
	// Precision is the target relative CI half-width for accepting a
	// sketch-tier answer; 0 uses the handle's default.
	Precision float64
	// Deadline, when positive, bounds the request's wall time (the
	// context is narrowed with a timeout; cancellation aborts between
	// polynomial terms and variance replicates with no partial result).
	Deadline time.Duration
	// Tier overrides the handle's tier policy for this request;
	// TierDefault (the zero value) keeps the handle's.
	Tier TierPolicy
}

// Result is an estimate plus the tier(s) that answered it.
type Result struct {
	Estimate
	// Tier reports which tier(s) produced the value.
	Tier TierReport
}

// requestContext narrows the context by the request's deadline.
func (req Request) requestContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if req.Deadline > 0 {
		return context.WithTimeout(ctx, req.Deadline)
	}
	return ctx, func() {}
}

// policyFor resolves the effective tier policy of a request.
func (e *Estimator) policyFor(req Request) TierPolicy {
	if req.Tier != TierDefault {
		return req.Tier
	}
	return e.policy
}

// precisionFor resolves the effective precision target of a request.
func (e *Estimator) precisionFor(req Request) float64 {
	if req.Precision > 0 {
		return req.Precision
	}
	return e.precision
}

// recordTier emits the tier-planner metrics (tiered requests only, so
// sample-only requests keep the sample tier's metric families exactly).
func (e *Estimator) recordTier(rep TierReport) {
	rec := e.opts.Recorder
	if !obs.Live(rec) {
		return
	}
	rec.Add(tierAnsweredMetric(rep.Answered), 1)
	rec.Set(mSketchBytes, float64(e.syn.SketchBytes()))
}

// Count estimates COUNT(req.Expr). Under TierSampleOnly the call is
// bit-identical to CountContext with the handle's options; under TierAuto
// or TierSketchOnly the tier planner runs (see tier.go).
func (e *Estimator) Count(ctx context.Context, req Request) (Result, error) {
	ctx, cancel := req.requestContext(ctx)
	defer cancel()
	policy := e.policyFor(req)
	if policy == TierSampleOnly {
		est, err := CountContext(ctx, req.Expr, e.syn, e.opts)
		if err != nil {
			return Result{}, err
		}
		return Result{Estimate: est, Tier: TierReport{Answered: TierAnsweredSample, SampleTerms: est.Terms}}, nil
	}
	e.syn.EnsureSketches() // per-request tier overrides on a sample-only handle
	est, rep, err := tieredCount(ctx, req.Expr, e.syn, e.opts, policy, e.precisionFor(req))
	if err != nil {
		return Result{}, err
	}
	e.recordTier(rep)
	return Result{Estimate: est, Tier: rep}, nil
}

// Sum estimates SUM(req.Col) over req.Expr's result. Aggregates carry no
// sketch form, so every Sum is answered by the sample tier; a
// TierSketchOnly request fails rather than silently downgrading.
func (e *Estimator) Sum(ctx context.Context, req Request) (Result, error) {
	ctx, cancel := req.requestContext(ctx)
	defer cancel()
	if e.policyFor(req) == TierSketchOnly {
		return Result{}, fmt.Errorf("estimator: sketch tier cannot answer SUM(%s); aggregates need the sample tier (auto or sample policy)", req.Col)
	}
	est, err := SumContext(ctx, req.Expr, req.Col, e.syn, e.opts)
	if err != nil {
		return Result{}, err
	}
	return Result{Estimate: est, Tier: TierReport{Answered: TierAnsweredSample, SampleTerms: est.Terms}}, nil
}

// Avg estimates AVG(req.Col) over req.Expr's result as the SUM/COUNT
// ratio. Like Sum it is always sample-tier.
func (e *Estimator) Avg(ctx context.Context, req Request) (AvgResult, TierReport, error) {
	ctx, cancel := req.requestContext(ctx)
	defer cancel()
	if e.policyFor(req) == TierSketchOnly {
		return AvgResult{}, TierReport{}, fmt.Errorf("estimator: sketch tier cannot answer AVG(%s); aggregates need the sample tier (auto or sample policy)", req.Col)
	}
	res, err := AvgContext(ctx, req.Expr, req.Col, e.syn, e.opts)
	if err != nil {
		return AvgResult{}, TierReport{}, err
	}
	return res, TierReport{Answered: TierAnsweredSample}, nil
}

// GroupCount estimates COUNT(*) GROUP BY req.Col over req.Expr's result,
// sorted by descending estimated count. Always sample-tier.
func (e *Estimator) GroupCount(ctx context.Context, req Request) ([]GroupEstimate, TierReport, error) {
	ctx, cancel := req.requestContext(ctx)
	defer cancel()
	if e.policyFor(req) == TierSketchOnly {
		return nil, TierReport{}, fmt.Errorf("estimator: sketch tier cannot answer GROUP BY %s; grouping needs the sample tier (auto or sample policy)", req.Col)
	}
	groups, err := GroupCountContext(ctx, req.Expr, req.Col, e.syn, e.opts)
	if err != nil {
		return nil, TierReport{}, err
	}
	return groups, TierReport{Answered: TierAnsweredSample}, nil
}
