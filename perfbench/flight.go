package main

// The flight workloads analyze the paper's Fig 1 query shape (Carrier →
// Delayed) under a WHERE clause that never repeats within a run, so every
// operation is a cold covariate discovery over the 101-attribute FlightData
// closure — over the count-cache cell budget, so the cost is backend round
// trips. flight-sqldb pushes them to SQL; flight-remote sends the same
// sequence to two loopback hypdbd peers, so only the transport differs.

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"hypdb"
	"hypdb/internal/core"
	"hypdb/internal/datagen"
	"hypdb/internal/dataset"
	"hypdb/internal/memsql"
	"hypdb/internal/server"
	"hypdb/source"
	"hypdb/source/remote"
	"hypdb/source/sharded"
	"hypdb/source/sqldb"
)

// flightRows is the FlightData size of both flight workloads.
const flightRows = 12000

var (
	flightCarrierPairs = [][]string{{"AA", "UA"}, {"AA", "DL"}, {"AA", "WN"}, {"UA", "DL"}, {"UA", "WN"}, {"DL", "WN"}}
	flightAirports     = []string{"COS", "MFE", "MTJ", "ROC", "SEA", "ORD", "JFK", "DEN"}
)

// flightFixedSeed draws the FlightData table and the query set of the
// flight workloads. A flight analysis runs for seconds, so a run holds
// only a handful of them, and a seeded table or query set moved a run's
// median by more than its bound (one query's latency differs from
// another's by up to 50%); the run's seed only orders the fixed set.
const flightFixedSeed = 1

// flightQueries plans n distinct Fig 1 queries in the order seed gives
// them. The carrier pair and the number of airports (2–4) cycle, so every
// run mixes the same shapes.
func flightQueries(seed int64, n int) []hypdb.Query {
	rng := rand.New(rand.NewSource(flightFixedSeed))
	seen := make(map[string]bool)
	var out []hypdb.Query
	for i := 0; len(out) < n; i++ {
		pair := flightCarrierPairs[i%len(flightCarrierPairs)]
		k := 2 + i%3
		var airports []string
		for _, j := range rng.Perm(len(flightAirports))[:k] {
			airports = append(airports, flightAirports[j])
		}
		sort.Strings(airports)
		key := strings.Join(pair, ",") + "|" + strings.Join(airports, ",")
		if seen[key] {
			continue
		}
		seen[key] = true
		q := datagen.FlightQuery()
		q.Where = dataset.And{
			dataset.In{Attr: "Carrier", Values: pair},
			dataset.In{Attr: "Airport", Values: airports},
		}
		out = append(out, q)
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// flightOptions are the analysis options of every flight operation (the
// permutation count of the paper-fidelity suite).
func flightOptions() []hypdb.Option {
	return []hypdb.Option{hypdb.WithSeed(1), hypdb.WithPermutations(200)}
}

type flightEnv struct {
	tab     *dataset.Table
	table   string // memsql registration (flight-sqldb)
	parts   []*dataset.Table
	queries []hypdb.Query
	remote  bool
}

func setupFlightSQL(_ context.Context, seed int64, nops int, _ string) (env, error) {
	e, err := newFlightEnv(seed, nops)
	if err != nil {
		return nil, err
	}
	e.table = "FlightData"
	memsql.Register(e.table, e.tab)
	return e, nil
}

func setupFlightRemote(_ context.Context, seed int64, nops int, _ string) (env, error) {
	e, err := newFlightEnv(seed, nops)
	if err != nil {
		return nil, err
	}
	e.remote = true
	// Contiguous halves: the coordinator admits the peers in order, which
	// reproduces the whole table's first-seen dictionary coding.
	n := e.tab.NumRows()
	for _, r := range [][2]int{{0, n / 2}, {n / 2, n}} {
		idx := make([]int, 0, r[1]-r[0])
		for i := r[0]; i < r[1]; i++ {
			idx = append(idx, i)
		}
		part, err := e.tab.SelectRows(idx)
		if err != nil {
			return nil, err
		}
		e.parts = append(e.parts, part)
	}
	return e, nil
}

func newFlightEnv(seed int64, nops int) (*flightEnv, error) {
	tab, err := datagen.Flight(flightRows, flightFixedSeed)
	if err != nil {
		return nil, err
	}
	return &flightEnv{tab: tab, queries: flightQueries(seed, nops)}, nil
}

func (e *flightEnv) close() {
	if e.table != "" {
		memsql.Unregister(e.table)
	}
}

// check analyzes every query again on a fresh mem session and compares.
func (e *flightEnv) check(ctx context.Context, p *pass) error {
	return forEach(len(p.ops), func(i int) error {
		o := p.ops[i]
		if o.err != nil {
			return nil
		}
		ref := hypdb.Open(e.tab)
		defer ref.Close()
		rep, err := ref.Analyze(ctx, e.queries[o.index], flightOptions()...)
		if err != nil {
			return fmt.Errorf("reference analyze %d: %w", o.index, err)
		}
		want, err := e.digest(rep)
		if err != nil {
			return err
		}
		o.wrong = o.digest != want
		return nil
	})
}

// digest compares remote answers byte for byte and sqldb answers by their
// conclusions (see digest.go).
func (e *flightEnv) digest(answer any) (string, error) {
	rep := answer.(*hypdb.Report)
	if e.remote {
		return reportDigest(rep)
	}
	return conclusionDigest(rep)
}

func (e *flightEnv) open(ctx context.Context, traced bool) (system, error) {
	if e.remote {
		return e.openRemote(ctx, traced)
	}
	return e.openSQL(ctx, traced)
}

func (e *flightEnv) newSystem(db *hypdb.DB, traced bool) *libSystem {
	return &libSystem{
		db: db, kind: "analyze", traced: traced, n: len(e.queries),
		exec: func(ctx context.Context, i int) (any, error) {
			return db.Analyze(ctx, e.queries[i], flightOptions()...)
		},
		digest: e.digest,
	}
}

// observeAnalyze feeds the per-layer figures every analysis report
// carries, plus the count-cache view of its WHERE clause.
func observeAnalyze(ctx context.Context, db *hypdb.DB, q hypdb.Query, rep *hypdb.Report, l *libLayers) error {
	l.detect += rep.Timing.Detect
	l.explain += rep.Timing.Explain
	l.resolv += rep.Timing.Resolve
	if rep.CD != nil {
		l.cdTests += rep.CD.Tests
	}
	for _, cd := range rep.MediatorCD {
		l.cdTests += cd.Tests
	}
	return addViewCache(ctx, db, q.Where, l)
}

// probePrepare calls core.PrepareCandidates on q's view of a separate
// session, so the probe neither warms nor reads the measured session's
// caches, and adds its time and the round trips it made (as trips counts
// them) to l.
func probePrepare(ctx context.Context, probe *hypdb.DB, q hypdb.Query, trips func() int64, l *libLayers) error {
	view, err := q.View(ctx, probe.Relation())
	if err != nil {
		return err
	}
	skip := map[string]bool{q.Treatment: true}
	for _, y := range q.Outcomes {
		skip[y] = true
	}
	var cands []string
	for _, a := range view.Attributes() {
		if !skip[a] {
			cands = append(cands, a)
		}
	}
	before := trips()
	start := time.Now()
	if _, _, err := core.PrepareCandidates(ctx, view, q.Treatment, cands, core.PrepareConfig{}); err != nil {
		return fmt.Errorf("probe PrepareCandidates: %w", err)
	}
	l.prepare += time.Since(start)
	l.prepareTrips += trips() - before
	return nil
}

func groupBys() int64 { return memsql.SnapshotStats().GroupBys }

// openSQL opens the sqldb session over the in-process memsql database.
// Setup covers the open and the dictionary probe.
func (e *flightEnv) openSQL(ctx context.Context, traced bool) (system, error) {
	if !traced {
		conn, err := memsql.Open("")
		if err != nil {
			return nil, err
		}
		db, err := hypdb.OpenSQL(ctx, conn, e.table)
		if err != nil {
			conn.Close()
			return nil, err
		}
		if _, err := db.Attributes(ctx); err != nil {
			db.Close()
			return nil, err
		}
		s := e.newSystem(db, false)
		s.trips = groupBys
		return s, nil
	}

	plain, err := memsql.Open("")
	if err != nil {
		return nil, err
	}
	var busy atomic.Int64
	conn := sql.OpenDB(meteredConnector{inner: plain.Driver(), busy: &busy})
	plain.Close()
	rel, err := sqldb.Open(ctx, conn, e.table)
	if err != nil {
		conn.Close()
		return nil, err
	}
	m := &backendMeter{timed: true}
	mrel, err := meter(rel, m)
	if err != nil {
		rel.Close()
		return nil, err
	}
	db := hypdb.OpenSource(mrel)
	if _, err := db.Attributes(ctx); err != nil {
		db.Close()
		return nil, err
	}
	probeConn, err := memsql.Open("")
	if err != nil {
		db.Close()
		return nil, err
	}
	probe, err := hypdb.OpenSQL(ctx, probeConn, e.table)
	if err != nil {
		probeConn.Close()
		db.Close()
		return nil, err
	}
	var sqlStats sqldb.Stats
	root0 := rel.Stats()
	s := e.newSystem(db, true)
	s.trips = groupBys
	s.release = func() { probe.Close() }
	s.observe = func(ctx context.Context, i int, answer any, l *libLayers) error {
		q := e.queries[i]
		if err := observeAnalyze(ctx, db, q, answer.(*hypdb.Report), l); err != nil {
			return err
		}
		view, err := rel.Restrict(ctx, q.Where)
		if err != nil {
			return err
		}
		if v, ok := view.(*sqldb.Relation); ok {
			st := v.Stats()
			sqlStats.CountQueries += st.CountQueries
			sqlStats.CacheHits += st.CacheHits
			sqlStats.Derived += st.Derived
		}
		return probePrepare(ctx, probe, q, groupBys, l)
	}
	s.finish = func(p *pass, l *libLayers) {
		root := rel.Stats()
		st := sqlStats
		st.CountQueries += root.CountQueries - root0.CountQueries
		st.CacheHits += root.CacheHits - root0.CacheHits
		st.Derived += root.Derived - root0.Derived
		p.setLayer("sqldb.count_queries_per_op", float64(st.CountQueries)/float64(l.ops), l.ops)
		served := st.CacheHits + st.Derived
		p.setLayer("sqldb.memo_hit_ratio", ratio(served, served+st.CountQueries), served+st.CountQueries)
		p.setLayer("sql.busy_ms_per_op", float64(busy.Load())/float64(time.Millisecond)/float64(l.ops), l.ops)
		setMeter(p, m, l.ops)
	}
	return s, nil
}

// node is one in-process hypdbd server listening on loopback: a peer
// holding a slice of the Flight table, or the service under test.
type node struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{}
}

// startNode serves srv's handler (wrapped by wrap, if non-nil) on a
// loopback port.
func startNode(srv *server.Server, wrap func(http.Handler) http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	p := &node{srv: srv, http: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		if err := p.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serving %s: %v\n", p.url, err)
		}
	}()
	return p, nil
}

// stop closes the listener and every connection, waits for Serve to
// return, and releases the server's datasets.
func (p *node) stop() {
	p.http.Close()
	<-p.done
	p.srv.Close()
}

// remoteTransport mirrors the transport source/remote builds by default.
func remoteTransport() *http.Transport {
	return &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 10 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	}
}

// openRemote starts the two peers and opens the coordinator session over
// them. Setup covers the peer start and the registration handshakes.
func (e *flightEnv) openRemote(ctx context.Context, traced bool) (system, error) {
	handlerLog := &latencyLog{}
	var wrap func(http.Handler) http.Handler
	if traced {
		wrap = func(h http.Handler) http.Handler { return timedHandler(h, handlerLog) }
	}
	var peers []*node
	stopPeers := func() {
		for _, p := range peers {
			p.stop()
		}
	}
	var urls []string
	for _, part := range e.parts {
		srv := server.New(server.Config{})
		if err := srv.AddDataset("FlightData", part); err != nil {
			srv.Close()
			stopPeers()
			return nil, err
		}
		p, err := startNode(srv, wrap)
		if err != nil {
			srv.Close()
			stopPeers()
			return nil, err
		}
		peers = append(peers, p)
		urls = append(urls, p.url)
	}

	if !traced {
		db, err := hypdb.OpenRemote(ctx, "FlightData", hypdb.WithRemoteShards(urls...))
		if err != nil {
			stopPeers()
			return nil, err
		}
		if _, err := db.Attributes(ctx); err != nil {
			db.Close()
			stopPeers()
			return nil, err
		}
		s := e.newSystem(db, false)
		s.trips = func() int64 { return remoteRequests(db) }
		s.release = stopPeers
		return s, nil
	}

	// The traced coordinator is OpenRemote's composition done by hand, so
	// the decorator and the timed transport can sit inside it.
	rtt := &latencyLog{}
	client := &http.Client{Transport: timedTransport{base: remoteTransport(), log: rtt}}
	var children []source.Relation
	closeChildren := func() {
		for _, c := range children {
			c.(source.Closer).Close()
		}
	}
	for _, u := range urls {
		c, err := remote.Open(ctx, u, "FlightData", remote.Options{Client: client})
		if err != nil {
			closeChildren()
			stopPeers()
			return nil, err
		}
		children = append(children, c)
	}
	sh, err := sharded.New(ctx, "FlightData", children)
	if err != nil {
		closeChildren()
		stopPeers()
		return nil, err
	}
	m := &backendMeter{timed: true}
	mrel, err := meter(sh, m)
	if err != nil {
		sh.Close()
		stopPeers()
		return nil, err
	}
	db := hypdb.OpenSource(mrel)
	if _, err := db.Attributes(ctx); err != nil {
		db.Close()
		stopPeers()
		return nil, err
	}
	probe, err := hypdb.OpenRemote(ctx, "FlightData", hypdb.WithRemoteShards(urls...))
	if err != nil {
		db.Close()
		stopPeers()
		return nil, err
	}
	// The probe's requests reach the same peers; keep them out of the
	// handler samples.
	probeTrips := func() int64 { return remoteRequests(probe) }
	peers0 := peerTotals(db)
	s := e.newSystem(db, true)
	s.trips = func() int64 { return remoteRequests(db) }
	s.release = func() {
		probe.Close()
		stopPeers()
	}
	s.observe = func(ctx context.Context, i int, answer any, l *libLayers) error {
		q := e.queries[i]
		if err := observeAnalyze(ctx, db, q, answer.(*hypdb.Report), l); err != nil {
			return err
		}
		handlerLog.pause(true)
		defer handlerLog.pause(false)
		return probePrepare(ctx, probe, q, probeTrips, l)
	}
	s.finish = func(p *pass, l *libLayers) {
		t := peerTotals(db)
		n := float64(l.ops)
		p.setLayer("remote.rpcs_per_op", float64(t.Requests-peers0.Requests)/n, l.ops)
		p.setLayer("remote.retries_per_op", float64(t.Retries-peers0.Retries)/n, l.ops)
		v, c := rtt.p50(time.Microsecond)
		p.setLayer("remote.rtt_p50_us", v, c)
		v, c = handlerLog.p50(time.Microsecond)
		p.setLayer("peer.handler_us_p50", v, c)
		setMeter(p, m, l.ops)
	}
	return s, nil
}

func peerTotals(db *hypdb.DB) remote.PeerStats {
	var t remote.PeerStats
	for _, p := range db.RemotePeers() {
		t.Requests += p.Requests
		t.Retries += p.Retries
	}
	return t
}

func remoteRequests(db *hypdb.DB) int64 { return peerTotals(db).Requests }
