package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"hypdb"
	"hypdb/internal/countcache"
	"hypdb/source"
)

// libSystem runs a library workload: one caller, a closed loop over the
// planned operations on one session handle.
type libSystem struct {
	db     *hypdb.DB
	kind   string // "analyze" or "audit"
	traced bool
	n      int
	// exec performs operation i (timed); digest reduces its answer
	// (untimed).
	exec   func(ctx context.Context, i int) (any, error)
	digest func(answer any) (string, error)
	// warm, if set, runs one operation outside the planned sequence before
	// the timed pass, so priming the session's caches is not timed.
	warm func(ctx context.Context) error
	// trips reads the cumulative backend round-trip counter.
	trips func() int64
	// observe runs after each successful traced operation, outside the
	// timed region, and feeds the per-layer figures.
	observe func(ctx context.Context, i int, answer any, l *libLayers) error
	// finish adds the workload's own per-layer metrics at the end of a
	// traced pass.
	finish func(p *pass, l *libLayers)
	// release stops what the session depends on, after it is closed.
	release func()
}

// libLayers accumulates per-layer figures over a traced pass.
type libLayers struct {
	ops                     int
	prepare                 time.Duration
	prepareTrips            int64
	detect, explain, resolv time.Duration
	cdTests                 int
	cache                   countcache.Stats // root plus each operation's WHERE view
	alloc                   uint64
	gcs                     uint32
}

// close closes the session, then what it depends on (peers, probes).
func (s *libSystem) close() {
	s.db.Close()
	if s.release != nil {
		s.release()
	}
}

func (s *libSystem) run(ctx context.Context, deadline time.Time) (*pass, error) {
	if s.warm != nil {
		if err := s.warm(ctx); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	p := &pass{planned: s.n}
	l := &libLayers{}
	stats0 := s.db.Stats()
	root, _ := s.db.Relation().(*countcache.Relation)
	var rootCache0 countcache.Stats
	if root != nil {
		rootCache0 = root.Stats()
	}
	var ms0, ms1 runtime.MemStats
	for i := 0; i < s.n; i++ {
		if time.Now().After(deadline) {
			break
		}
		if s.traced {
			runtime.ReadMemStats(&ms0)
		}
		before := s.trips()
		cpu0 := cpuTime()
		start := time.Now()
		answer, err := s.exec(ctx, i)
		o := &op{kind: s.kind, index: i, start: start, latency: time.Since(start), err: err}
		o.cpu = cpuTime() - cpu0
		o.trips = s.trips() - before
		if s.traced {
			runtime.ReadMemStats(&ms1)
			l.alloc += ms1.TotalAlloc - ms0.TotalAlloc
			l.gcs += ms1.NumGC - ms0.NumGC
		}
		p.wall += o.latency
		p.cpu += o.cpu
		p.trips += o.trips
		p.ops = append(p.ops, o)
		if err != nil {
			continue
		}
		if o.digest, o.err = s.digest(answer); o.err != nil {
			continue
		}
		if s.traced {
			l.ops++
			if err := s.observe(ctx, i, answer, l); err != nil {
				return nil, err
			}
		}
	}
	p.rssMB, p.heapMB = peakRSSMB(), retainedHeapMB()
	if !s.traced {
		return p, nil
	}

	ops := float64(l.ops)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / ops }
	p.setLayer("core.prepare_ms_per_op", ms(l.prepare), l.ops)
	p.setLayer("core.prepare_round_trips_per_op", float64(l.prepareTrips)/ops, l.ops)
	p.setLayer("core.detect_ms_per_op", ms(l.detect), l.ops)
	p.setLayer("core.explain_ms_per_op", ms(l.explain), l.ops)
	p.setLayer("core.resolve_ms_per_op", ms(l.resolv), l.ops)
	p.setLayer("cd.tests_per_op", float64(l.cdTests)/ops, l.ops)

	st := s.db.Stats()
	computes, hits := st.CDComputes-stats0.CDComputes, st.CDHits-stats0.CDHits
	p.setLayer("facade.cd_hit_ratio", ratio(hits, hits+computes), hits+computes)
	p.setLayer("planner.round_trips_saved_per_op", float64(st.Planner.RoundTripsSaved-stats0.Planner.RoundTripsSaved)/ops, l.ops)

	if root != nil {
		rs := root.Stats()
		c := l.cache
		c.Fetches += rs.Fetches - rootCache0.Fetches
		c.Hits += rs.Hits - rootCache0.Hits
		c.Derived += rs.Derived - rootCache0.Derived
		p.setLayer("countcache.fetches_per_op", float64(c.Fetches)/ops, l.ops)
		served := c.Hits + c.Derived
		p.setLayer("countcache.hit_ratio", ratio(served, served+c.Fetches), served+c.Fetches)
		p.setLayer("countcache.cells", float64(root.TotalCachedCells()), 1)
	}
	p.setLayer("runtime.alloc_mb_per_op", float64(l.alloc)/(1<<20)/ops, l.ops)
	p.setLayer("runtime.gc_cycles_per_op", float64(l.gcs)/ops, l.ops)
	if s.finish != nil {
		s.finish(p, l)
	}
	return p, nil
}

// addViewCache adds the count-cache counters of the session's view for
// where — the cache one operation's restricted reads went through. Over a
// versioned backend each call restricts its own pinned snapshot, whose
// caches are private to the call; only the root cache is visible there.
func addViewCache(ctx context.Context, db *hypdb.DB, where hypdb.Predicate, l *libLayers) error {
	root, ok := db.Relation().(*countcache.Relation)
	if !ok || where == nil {
		return nil
	}
	if _, versioned := root.Inner().(source.Versioned); versioned {
		return nil
	}
	view, err := root.Restrict(ctx, where)
	if err != nil {
		return err
	}
	if c, ok := view.(*countcache.Relation); ok {
		s := c.Stats()
		l.cache.Fetches += s.Fetches
		l.cache.Hits += s.Hits
		l.cache.Derived += s.Derived
	}
	return nil
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// setMeter reports the backend decorator's figures.
func setMeter(p *pass, m *backendMeter, ops int) {
	n := float64(ops)
	p.setLayer("backend.calls_per_op", float64(m.calls.Load())/n, ops)
	p.setLayer("backend.busy_ms_per_op", float64(m.busy.Load())/float64(time.Millisecond)/n, ops)
	p.setLayer("backend.rows_scanned_per_op", float64(m.rows.Load())/n, ops)
}
