package main

// Answer digests. Every operation's answer is reduced to a digest outside
// the timed region and compared with the same operation on an in-memory
// mem reference. Remote and sharded answers must match the reference
// byte for byte in their wire form; sqldb answers are compared on the
// conclusions the backend-equivalence suite compares, because the SQL
// backend codes dictionaries in sorted order and its Monte-Carlo p-values
// therefore draw differently.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"hypdb"
	"hypdb/api"
)

func hashJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// wireDigest digests an analysis in its HTTP wire form without the
// wall-clock fields (timing, and the text panel that prints it).
func wireDigest(r *api.Report) (string, error) {
	cp := *r
	cp.Timing = api.Timing{}
	cp.Text = ""
	return hashJSON(&cp)
}

func reportDigest(rep *hypdb.Report) (string, error) {
	return wireDigest(api.ReportFromCore(rep))
}

// auditDigest digests an audit in its wire form without the wall clock.
func auditDigest(rep *hypdb.AuditReport) (string, error) {
	r := api.AuditReportFromCore(rep)
	r.ElapsedMS = 0
	r.Text = ""
	return hashJSON(r)
}

// conclusion is what the sqldb answer must share with the reference: the
// verdict, adjustment sets, explanation ranking and the effects' direction
// and magnitude, plus the significance of deterministic (χ²) tests.
type conclusion struct {
	SQL          string
	Biased       bool
	UsedFallback bool
	Covariates   []string
	Mediators    []string
	Explanations []explanation
	Effects      [3]*effect
}

type explanation struct {
	Attr string
	Rho  float64
}

type effect struct {
	T0, T1      string
	Diff        float64
	Significant bool
}

func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

func effectOf(comps []hypdb.ComparisonReport) *effect {
	if len(comps) == 0 {
		return nil
	}
	c := comps[0]
	e := &effect{T0: c.T0, T1: c.T1, Diff: round4(c.Diffs[0])}
	// Monte-Carlo verdicts depend on the sampled category order; only the
	// parametric χ² branches are deterministic across backends.
	if len(c.Methods) > 0 && (c.Methods[0] == "chi2" || c.Methods[0] == "hymit(chi2)") {
		e.Significant = c.PValues[0] < 0.01
	}
	return e
}

func conclusionDigest(rep *hypdb.Report) (string, error) {
	c := conclusion{
		SQL:          rep.OriginalSQL,
		UsedFallback: rep.CD != nil && rep.CD.UsedFallback,
		Covariates:   rep.Covariates,
		Mediators:    rep.Mediators,
		Effects: [3]*effect{
			effectOf(rep.OriginalComparisons), effectOf(rep.TotalComparisons), effectOf(rep.DirectComparisons),
		},
	}
	for _, b := range append(append([]hypdb.BiasResult(nil), rep.BiasTotal...), rep.BiasDirect...) {
		c.Biased = c.Biased || b.Biased
	}
	for _, r := range rep.Coarse {
		c.Explanations = append(c.Explanations, explanation{Attr: r.Attr, Rho: round4(r.Rho)})
	}
	return hashJSON(c)
}
