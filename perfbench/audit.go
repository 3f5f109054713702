package main

// audit-adult-mem sweeps the AdultData lattice for bias, each operation
// restricted to a sub-population that never repeats within a run. The
// attribute closure fits the count-cache cell budget, so counts come from
// the primed cache and the time goes into independence tests.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"hypdb"
	"hypdb/internal/datagen"
	"hypdb/internal/dataset"
	"hypdb/source/mem"
)

// adultRows is the AdultData size of Table 1.
const adultRows = 48842

// auditMaxCard bounds the cardinality of the attributes a sub-population
// may be restricted on.
const auditMaxCard = 8

// auditMinShare keeps sub-populations large enough that the sweep
// evaluates candidates rather than pruning them all.
const auditMinShare = 0.05

type auditEnv struct {
	tab    *dataset.Table
	csv    string // tab as the CSV file an analyst would open
	wheres []hypdb.Predicate
	warm   hypdb.Predicate // the untimed warm-up's sub-population
	// seeds are the Monte-Carlo seeds of the planned audits, then of the
	// warm-up.
	seeds []int64
}

func setupAudit(_ context.Context, seed int64, nops int, _ string) (env, error) {
	tab, err := datagen.Adult(adultRows, auditFixedSeed)
	if err != nil {
		return nil, err
	}
	wheres, err := auditWheres(tab, nops+1)
	if err != nil {
		return nil, err
	}
	var csv strings.Builder
	if err := tab.WriteCSV(&csv); err != nil {
		return nil, err
	}
	seeds := make([]int64, nops+1)
	rng := rand.New(rand.NewSource(seed))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return &auditEnv{tab: tab, csv: csv.String(), wheres: wheres[:nops], warm: wheres[nops], seeds: seeds}, nil
}

// auditFixedSeed draws the AdultData table and the sequence of
// sub-populations. One audit's latency differs from another's by up to
// 10×, and the session's count cache carries state from one audit to the
// next, so a seeded table, set or order of sub-populations moved a run's
// figures by more than its bound; shuffling the order alone left the count
// cache fuller or emptier at the end, moving the retained heap by 10%. The
// run's seed draws each audit's Monte-Carlo seed instead. One seed for a
// whole run moved its CPU time by up to 28% — a seed's tests send every
// audit on to examine more or fewer candidates — while a seed per audit
// averages over the run.
const auditFixedSeed = 1

// auditWheres plans n distinct restrictions of two attribute=value
// conjuncts each. A single conjunct leaves sub-populations so large that
// one audit took up to 40× another, and a run's figures then rested on its
// few slowest audits.
func auditWheres(tab *dataset.Table, n int) ([]hypdb.Predicate, error) {
	var attrs []*dataset.Column
	for _, name := range tab.Columns() {
		if c := tab.MustColumn(name); c.Card() >= 2 && c.Card() <= auditMaxCard {
			attrs = append(attrs, c)
		}
	}
	rng := rand.New(rand.NewSource(auditFixedSeed))
	seen := make(map[string]bool)
	var out []hypdb.Predicate
	for tries := 0; len(out) < n; tries++ {
		if tries > 100*n {
			return nil, fmt.Errorf("only %d distinct sub-populations of at least %.0f%% of the rows", len(out), 100*auditMinShare)
		}
		var conj dataset.And
		for _, j := range rng.Perm(len(attrs))[:2] {
			labels := attrs[j].Labels()
			conj = append(conj, dataset.Eq{Attr: attrs[j].Name, Value: labels[rng.Intn(len(labels))]})
		}
		var pred hypdb.Predicate = conj
		key := pred.SQL()
		if seen[key] {
			continue
		}
		sub, err := tab.Select(pred)
		if err != nil {
			return nil, err
		}
		if float64(sub.NumRows()) < auditMinShare*float64(tab.NumRows()) {
			continue
		}
		seen[key] = true
		out = append(out, pred)
	}
	return out, nil
}

func (e *auditEnv) close() {}

func (e *auditEnv) spec(i int) hypdb.AuditSpec { return hypdb.AuditSpec{Where: e.wheres[i]} }

// option is audit i's Monte-Carlo seed; i == len(e.wheres) is the warm-up.
func (e *auditEnv) option(i int) hypdb.Option { return hypdb.WithSeed(e.seeds[i]) }

// check runs every audit again on a fresh mem session, so no cached
// state of the measured session can leak into the reference.
func (e *auditEnv) check(ctx context.Context, p *pass) error {
	return forEach(len(p.ops), func(i int) error {
		o := p.ops[i]
		if o.err != nil {
			return nil
		}
		ref := hypdb.Open(e.tab)
		defer ref.Close()
		rep, err := ref.Audit(ctx, e.spec(o.index), e.option(o.index))
		if err != nil {
			return fmt.Errorf("reference audit %d: %w", o.index, err)
		}
		want, err := auditDigest(rep)
		if err != nil {
			return err
		}
		o.wrong = o.digest != want
		return nil
	})
}

// open opens the mem session from CSV: hypdb.OpenCSV's composition, with
// the backend decorator between the count cache and source/mem counting
// round trips (and, traced, timing them). Setup covers reading the CSV,
// the open and the dictionary probe.
func (e *auditEnv) open(ctx context.Context, traced bool) (system, error) {
	tab, err := hypdb.ReadCSV(strings.NewReader(e.csv))
	if err != nil {
		return nil, err
	}
	m := &backendMeter{timed: traced}
	rel, err := meter(mem.New(tab), m)
	if err != nil {
		return nil, err
	}
	db := hypdb.OpenSource(rel)
	if _, err := db.Attributes(ctx); err != nil {
		db.Close()
		return nil, err
	}
	s := &libSystem{
		db: db, kind: "audit", traced: traced, n: len(e.wheres),
		exec: func(ctx context.Context, i int) (any, error) {
			return db.Audit(ctx, e.spec(i), e.option(i))
		},
		warm: func(ctx context.Context) error {
			_, err := db.Audit(ctx, hypdb.AuditSpec{Where: e.warm}, e.option(len(e.wheres)))
			return err
		},
		digest: func(answer any) (string, error) { return auditDigest(answer.(*hypdb.AuditReport)) },
		trips:  m.calls.Load,
	}
	s.observe = func(ctx context.Context, i int, answer any, l *libLayers) error {
		// A treatment's discovery serves all its candidates; count it once.
		tests := make(map[string]int)
		for _, f := range answer.(*hypdb.AuditReport).Findings {
			tests[f.Treatment] = max(tests[f.Treatment], f.CDTests)
		}
		for _, t := range tests {
			l.cdTests += t
		}
		return addViewCache(ctx, db, e.wheres[i], l)
	}
	s.finish = func(p *pass, l *libLayers) { setMeter(p, m, l.ops) }
	return s, nil
}
