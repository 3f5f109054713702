package main

// The traced pass measures each layer from outside the program: it wraps
// the objects hypdb accepts from its caller (the source.Relation given to
// OpenSource, the database/sql connector, the remote transport's HTTP
// client, the handlers served on loopback) and times the calls crossing
// them. Nothing here changes what the program computes; the traced pass
// must reproduce the plain pass's answers and round trips.

import (
	"context"
	"database/sql/driver"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hypdb/internal/dataset"
	"hypdb/source"
)

// layerMetrics lists the per-layer metrics with their units, in the
// order README.md documents them. Every traced run reports each one (zero
// where the workload does not reach the layer).
var layerMetrics = []struct{ name, unit string }{
	{"core.prepare_ms_per_op", "ms"},
	{"core.prepare_round_trips_per_op", "count"},
	{"core.detect_ms_per_op", "ms"},
	{"core.explain_ms_per_op", "ms"},
	{"core.resolve_ms_per_op", "ms"},
	{"cd.tests_per_op", "count"},
	{"facade.cd_hit_ratio", "ratio"},
	{"planner.round_trips_saved_per_op", "count"},
	{"countcache.fetches_per_op", "count"},
	{"countcache.hit_ratio", "ratio"},
	{"countcache.cells", "count"},
	{"countcache.delta_applied_per_append", "count"},
	{"backend.calls_per_op", "count"},
	{"backend.busy_ms_per_op", "ms"},
	{"backend.rows_scanned_per_op", "count"},
	{"sqldb.count_queries_per_op", "count"},
	{"sqldb.memo_hit_ratio", "ratio"},
	{"sql.busy_ms_per_op", "ms"},
	{"remote.rpcs_per_op", "count"},
	{"remote.retries_per_op", "count"},
	{"remote.rtt_p50_us", "us"},
	{"peer.handler_us_p50", "us"},
	{"server.handler_ms_p50", "ms"},
	{"client.request_ms_p50", "ms"},
	{"admission.queued_ratio", "ratio"},
	{"admission.shed_ratio", "ratio"},
	{"catalog.bytes_written_per_user_byte", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
}

// latencyLog collects durations recorded by concurrent callers.
type latencyLog struct {
	paused atomic.Bool
	mu     sync.Mutex
	xs     []time.Duration
}

// pause stops (or resumes) recording, for requests the benchmark itself
// makes outside the measured sequence.
func (l *latencyLog) pause(on bool) { l.paused.Store(on) }

func (l *latencyLog) add(d time.Duration) {
	if l.paused.Load() {
		return
	}
	l.mu.Lock()
	l.xs = append(l.xs, d)
	l.mu.Unlock()
}

// p50 returns the median in the given unit and the sample count.
func (l *latencyLog) p50(unit time.Duration) (float64, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.xs) == 0 {
		return 0, 0
	}
	s := make([]float64, len(l.xs))
	for i, d := range l.xs {
		s[i] = float64(d) / float64(unit)
	}
	return median(s), len(s)
}

// ---------------------------------------------------------------------------
// Backend boundary: a source.Relation decorator

// backendMeter counts the calls that reach the backend below the session
// count cache. timed adds the busy time and rows scanned; the plain pass
// leaves it off and uses only the call count as its round-trip figure.
type backendMeter struct {
	timed bool
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds, summed over concurrent calls
	rows  atomic.Int64
}

// record accounts one completed call. rows is the scanned relation's row
// count: every backend call tabulates the whole (restricted) relation.
func (m *backendMeter) record(ctx context.Context, rel source.Relation, start time.Time) {
	m.calls.Add(1)
	if !m.timed {
		return
	}
	m.busy.Add(int64(time.Since(start)))
	if n, err := rel.NumRows(ctx); err == nil {
		m.rows.Add(int64(n))
	}
}

// The capabilities hypdb probes on a relation by type assertion. The
// decorator must present exactly the wrapped backend's set: a missing one
// would silently switch the engine to another code path, an extra one
// would claim a capability the backend lacks.
type (
	capDense    = source.DenseCounter
	capMat      = source.Materializer
	capClose    = source.Closer
	capAppend   = source.Appender
	capVersions = source.Versioned
	capCard     interface {
		Cardinality(ctx context.Context, attr string) (int, error)
	}
	capTable    interface{ Table() *dataset.Table }
	capChildren interface{ Children() []source.Relation }
	capDegraded interface{ DegradedServes() uint64 }
)

func capabilities(rel source.Relation) string {
	var s string
	add := func(ok bool, name string) {
		if ok {
			s += name + " "
		}
	}
	_, dense := rel.(capDense)
	_, mat := rel.(capMat)
	_, cl := rel.(capClose)
	_, ap := rel.(capAppend)
	_, ver := rel.(capVersions)
	_, card := rel.(capCard)
	_, tab := rel.(capTable)
	_, ch := rel.(capChildren)
	_, deg := rel.(capDegraded)
	add(dense, "dense")
	add(mat, "materialize")
	add(cl, "close")
	add(ap, "append")
	add(ver, "versioned")
	add(card, "cardinality")
	add(tab, "table")
	add(ch, "children")
	add(deg, "degraded")
	return s
}

// meter wraps rel so the calls reaching it are counted. It fails for a
// backend whose capability set no decorator type mirrors exactly.
func meter(rel source.Relation, m *backendMeter) (source.Relation, error) {
	base := meteredRel{inner: rel, m: m}
	var out source.Relation
	switch c := capabilities(rel); c {
	case "dense materialize table ": // source/mem
		out = meteredMem{meteredDense{base}}
	case "dense materialize cardinality ": // source/sharded views
		out = meteredCard{meteredDense{base}}
	case "dense materialize close cardinality ": // source/sqldb
		out = meteredClose{meteredCard{meteredDense{base}}}
	case "dense materialize close append versioned cardinality children degraded ": // source/sharded root
		out = meteredSharded{meteredClose{meteredCard{meteredDense{base}}}}
	default:
		return nil, fmt.Errorf("no relation decorator mirrors the capability set %q of %T", c, rel)
	}
	if got, want := capabilities(out), capabilities(rel); got != want {
		return nil, fmt.Errorf("decorator for %T presents %q, backend has %q", rel, got, want)
	}
	return out, nil
}

type meteredRel struct {
	inner source.Relation
	m     *backendMeter
}

func (r meteredRel) Name() string                  { return r.inner.Name() }
func (r meteredRel) Backend() string               { return r.inner.Backend() }
func (r meteredRel) Attributes() []string          { return r.inner.Attributes() }
func (r meteredRel) HasAttribute(name string) bool { return r.inner.HasAttribute(name) }

func (r meteredRel) NumRows(ctx context.Context) (int, error) { return r.inner.NumRows(ctx) }

func (r meteredRel) Labels(ctx context.Context, attr string) ([]string, error) {
	return r.inner.Labels(ctx, attr)
}

func (r meteredRel) Counts(ctx context.Context, attrs []string, where source.Predicate) (map[source.Key]int, error) {
	start := time.Now()
	out, err := r.inner.Counts(ctx, attrs, where)
	if err == nil {
		r.m.record(ctx, r.inner, start)
	}
	return out, err
}

func (r meteredRel) Restrict(ctx context.Context, where source.Predicate) (source.Relation, error) {
	inner, err := r.inner.Restrict(ctx, where)
	if err != nil || inner == r.inner {
		return r.self(), err
	}
	return meter(inner, r.m)
}

// self rewraps the receiver in the decorator type of its capability set
// (Restrict with a nil predicate returns the relation itself).
func (r meteredRel) self() source.Relation {
	out, err := meter(r.inner, r.m)
	if err != nil {
		panic(err) // r was built by meter, so its capability set is known
	}
	return out
}

type meteredDense struct{ meteredRel }

func (r meteredDense) DenseCounts(ctx context.Context, attrs []string, where source.Predicate, budget int) (*dataset.DenseCounts, error) {
	start := time.Now()
	out, err := r.inner.(capDense).DenseCounts(ctx, attrs, where, budget)
	if err == nil && out != nil { // nil: over budget, nothing was tabulated
		r.m.record(ctx, r.inner, start)
	}
	return out, err
}

func (r meteredDense) Materialize(ctx context.Context) (*dataset.Table, error) {
	return r.inner.(capMat).Materialize(ctx)
}

type meteredMem struct{ meteredDense }

func (r meteredMem) Table() *dataset.Table { return r.inner.(capTable).Table() }

type meteredCard struct{ meteredDense }

func (r meteredCard) Cardinality(ctx context.Context, attr string) (int, error) {
	return r.inner.(capCard).Cardinality(ctx, attr)
}

type meteredClose struct{ meteredCard }

func (r meteredClose) Close() error { return r.inner.(capClose).Close() }

type meteredSharded struct{ meteredClose }

func (r meteredSharded) Append(ctx context.Context, rows [][]string) (*source.AppendResult, error) {
	res, err := r.inner.(capAppend).Append(ctx, rows)
	if err != nil {
		return nil, err
	}
	// The count cache tabulates the delta to upgrade its views: that is
	// backend work too.
	out := *res
	if out.Delta, err = meter(res.Delta, r.m); err != nil {
		return nil, err
	}
	return &out, nil
}

func (r meteredSharded) SnapshotVersion() uint64 { return r.inner.(capVersions).SnapshotVersion() }

func (r meteredSharded) Snapshot() (source.Relation, uint64) {
	snap, ver := r.inner.(capVersions).Snapshot()
	out, err := meter(snap, r.m)
	if err != nil {
		panic(err) // sharded snapshots are views, a known capability set
	}
	return out, ver
}

func (r meteredSharded) Children() []source.Relation { return r.inner.(capChildren).Children() }
func (r meteredSharded) DegradedServes() uint64      { return r.inner.(capDegraded).DegradedServes() }

// ---------------------------------------------------------------------------
// SQL boundary: a database/sql connector wrapping the in-process driver

// meteredConnector opens connections whose queries are timed from the call
// until their rows are closed, i.e. the database's busy time per query.
type meteredConnector struct {
	inner driver.Driver
	busy  *atomic.Int64 // nanoseconds
}

func (c meteredConnector) Connect(context.Context) (driver.Conn, error) {
	conn, err := c.inner.Open("")
	if err != nil {
		return nil, err
	}
	q, ok := conn.(driver.QueryerContext)
	if !ok {
		conn.Close()
		return nil, fmt.Errorf("driver %T has no QueryerContext", c.inner)
	}
	return meteredConn{Conn: conn, q: q, busy: c.busy}, nil
}

func (c meteredConnector) Driver() driver.Driver { return c.inner }

type meteredConn struct {
	driver.Conn
	q    driver.QueryerContext
	busy *atomic.Int64
}

func (c meteredConn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	start := time.Now()
	rows, err := c.q.QueryContext(ctx, query, args)
	if err != nil {
		c.busy.Add(int64(time.Since(start)))
		return nil, err
	}
	return &meteredRows{Rows: rows, start: start, busy: c.busy}, nil
}

type meteredRows struct {
	driver.Rows
	start  time.Time
	busy   *atomic.Int64
	closed bool
}

func (r *meteredRows) Close() error {
	if !r.closed {
		r.closed = true
		r.busy.Add(int64(time.Since(r.start)))
	}
	return r.Rows.Close()
}

// ---------------------------------------------------------------------------
// HTTP boundaries: client transport and server middleware

// timedTransport records each request's round trip, from sending it until
// the caller closes the response body.
type timedTransport struct {
	base http.RoundTripper
	log  *latencyLog
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, start: start, log: t.log}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	start time.Time
	log   *latencyLog
	once  sync.Once
}

func (b *timedBody) Close() error {
	b.once.Do(func() { b.log.add(time.Since(b.start)) })
	return b.ReadCloser.Close()
}

// timedHandler records the time each request spends in h.
func timedHandler(h http.Handler, log *latencyLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		log.add(time.Since(start))
	})
}
