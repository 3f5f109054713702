package main

// service-staples-append drives an in-process hypdbd over loopback HTTP
// with two closed-loop api.Client callers: about 80% analyzes drawn from
// eight StaplesData queries and about 20% appends of 1,000 rows. It is the
// only workload through api, internal/server, internal/admission,
// internal/catalog and the sharded append path, with reads running beside
// fsynced writes.

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"hypdb"
	"hypdb/api"
	"hypdb/internal/countcache"
	"hypdb/internal/datagen"
	"hypdb/internal/dataset"
	"hypdb/internal/server"
)

const (
	serviceDataset = "StaplesData"
	serviceRows    = 50000 // rows uploaded at set-up
	serviceBatch   = 1000  // rows per append
	serviceShards  = 4
	serviceCallers = 2
	// serviceAppendEvery places an append at every fifth operation (20%).
	serviceAppendEvery = 5
)

var serviceStates = []string{"WA", "CA", "TX", "NY", "FL"}

type svcOp struct {
	append bool
	query  int // analyze: index into queries
	batch  int // append: index of the row batch
}

type serviceEnv struct {
	full    *dataset.Table // the upload followed by every batch
	baseCSV string
	batches [][][]string
	userB   []int // CSV bytes of each batch
	queries []api.AnalyzeRequest
	plan    []svcOp
	dir     string
}

// serviceQueries picks eight Income → Price queries over State subsets:
// two of two states, three of three, two of four and all five. The
// whole-table query is the one whose counts the dataset's shared count
// cache holds (restricted queries cache per request), so appends upgrade
// its views through the delta path.
func serviceQueries(rng *rand.Rand) []api.AnalyzeRequest {
	var out []api.AnalyzeRequest
	seen := make(map[string]bool)
	for _, k := range []int{2, 2, 3, 3, 3, 4, 4, 5} {
		for {
			var states []string
			for _, j := range rng.Perm(len(serviceStates))[:k] {
				states = append(states, "'"+serviceStates[j]+"'")
			}
			sort.Strings(states)
			where := "State IN (" + strings.Join(states, ",") + ")"
			if k == len(serviceStates) {
				where = ""
			}
			if seen[where] {
				continue
			}
			seen[where] = true
			out = append(out, api.AnalyzeRequest{
				Dataset: serviceDataset,
				Query:   api.Query{Treatment: "Income", Outcomes: []string{"Price"}, Where: where},
				Options: api.Options{Seed: 1, Permutations: 200},
			})
			break
		}
	}
	return out
}

// serviceFixedSeed draws the StaplesData rows and the eight queries. A
// seeded table or query set moved a run's figures by up to 15%, so the
// run's seed only orders each round of the eight queries.
const serviceFixedSeed = 1

func setupService(_ context.Context, seed int64, nops int, dir string) (env, error) {
	e := &serviceEnv{queries: serviceQueries(rand.New(rand.NewSource(serviceFixedSeed))), dir: dir}
	rng := rand.New(rand.NewSource(seed))
	// Every fifth operation appends, and the analyses go through the eight
	// queries in seeded rounds, so every run has the same mix and the
	// table grows by the same rows.
	appends := 0
	var round []int
	for i := 0; i < nops; i++ {
		if i%serviceAppendEvery == serviceAppendEvery-1 {
			e.plan = append(e.plan, svcOp{append: true, batch: appends})
			appends++
			continue
		}
		if len(round) == 0 {
			round = rng.Perm(len(e.queries))
		}
		e.plan = append(e.plan, svcOp{query: round[0]})
		round = round[1:]
	}
	full, err := datagen.Staples(serviceRows+appends*serviceBatch, serviceFixedSeed)
	if err != nil {
		return nil, err
	}
	e.full = full
	base, err := e.rows(0, serviceRows)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := base.WriteCSV(&buf); err != nil {
		return nil, err
	}
	e.baseCSV = buf.String()
	cols := full.Columns()
	for b := 0; b < appends; b++ {
		lo := serviceRows + b*serviceBatch
		rows := make([][]string, serviceBatch)
		for r := range rows {
			rows[r] = make([]string, len(cols))
			for c, name := range cols {
				rows[r][c] = full.MustColumn(name).Value(lo + r)
			}
		}
		var cb bytes.Buffer
		w := csv.NewWriter(&cb)
		if err := w.WriteAll(rows); err != nil {
			return nil, err
		}
		e.batches = append(e.batches, rows)
		e.userB = append(e.userB, cb.Len())
	}
	return e, nil
}

// rows returns rows [lo, hi) of the full table.
func (e *serviceEnv) rows(lo, hi int) (*dataset.Table, error) {
	idx := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		idx = append(idx, i)
	}
	return e.full.SelectRows(idx)
}

func (e *serviceEnv) close() {}

// svcSystem is one running server with its data directory and clients.
type svcSystem struct {
	e       *serviceEnv
	traced  bool
	srv     *server.Server
	node    *node
	dataDir string
	client  *api.Client
	// poll reads /v1/metrics outside the timed client's samples.
	poll *api.Client
	// traced instruments
	handlerLog, clientLog *latencyLog
}

func (e *serviceEnv) open(ctx context.Context, traced bool) (system, error) {
	dataDir, err := os.MkdirTemp(e.dir, "catalog-")
	if err != nil {
		return nil, err
	}
	s := &svcSystem{e: e, traced: traced, dataDir: dataDir, handlerLog: &latencyLog{}, clientLog: &latencyLog{}}
	s.srv = server.New(server.Config{Shards: serviceShards})
	if err := s.srv.OpenCatalog(dataDir); err != nil {
		s.srv.Close()
		return nil, err
	}
	var wrap func(http.Handler) http.Handler
	hc := api.DefaultHTTPClient()
	if traced {
		wrap = func(h http.Handler) http.Handler {
			timed := timedHandler(h, s.handlerLog)
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				// The benchmark's own metrics polls are not part of the mix.
				if strings.HasSuffix(r.URL.Path, "metrics") {
					h.ServeHTTP(w, r)
					return
				}
				timed.ServeHTTP(w, r)
			})
		}
		hc.Transport = timedTransport{base: hc.Transport, log: s.clientLog}
	}
	if s.node, err = startNode(s.srv, wrap); err != nil {
		s.srv.Close()
		return nil, err
	}
	s.client = api.NewClient(s.node.url, hc)
	s.poll = api.NewClient(s.node.url, nil)
	if _, err := s.client.CreateShardedDataset(ctx, serviceDataset, e.baseCSV, serviceShards); err != nil {
		s.close()
		return nil, fmt.Errorf("upload: %w", err)
	}
	return s, nil
}

func (s *svcSystem) close() {
	s.node.stop()
	os.RemoveAll(s.dataDir)
}

// svcOpResult keeps what the answer check needs beyond the common op.
type svcOpResult struct {
	*op
	end     time.Time
	report  *api.Report
	version uint64 // appends: the acknowledged snapshot version
	rows    int    // appends: the acknowledged row total
}

func (s *svcSystem) cache() *countcache.Relation {
	db, ok := s.srv.DB(serviceDataset)
	if !ok {
		return nil
	}
	c, _ := db.Relation().(*countcache.Relation)
	return c
}

func (s *svcSystem) run(ctx context.Context, deadline time.Time) (*pass, error) {
	e := s.e
	p := &pass{planned: len(e.plan)}
	results := make([]*svcOpResult, len(e.plan))
	cache := s.cache()
	if cache == nil {
		return nil, fmt.Errorf("dataset %s is not served through the count cache", serviceDataset)
	}
	cache0 := cache.Stats()
	m0, err := s.poll.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	du0, err := dirBytes(s.dataDir)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	stopPoll := make(chan struct{})
	var polls, queuedPolls int
	var pollWG sync.WaitGroup
	if s.traced {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			t := time.NewTicker(100 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-t.C:
					if m, err := s.poll.Metrics(ctx); err == nil {
						polls++
						if m.Admission.Queued > 0 {
							queuedPolls++
						}
					}
				}
			}
		}()
	}

	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serviceCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(e.plan); i += serviceCallers {
				if time.Now().After(deadline) {
					return
				}
				results[i] = s.do(ctx, i)
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	close(stopPoll)
	pollWG.Wait()
	p.rssMB, p.heapMB = peakRSSMB(), retainedHeapMB()
	runtime.ReadMemStats(&ms1)

	appends, analyzes := 0, 0
	for _, r := range results {
		if r == nil {
			continue
		}
		p.ops = append(p.ops, r.op)
		if r.kind == "append" {
			appends++
		} else {
			analyzes++
		}
	}
	cs := cache.Stats()
	p.trips = int64(cs.Fetches - cache0.Fetches)
	p.detail = results
	if !s.traced {
		return p, nil
	}

	n := len(p.ops)
	ops := float64(n)
	var detect, explain, resolv float64
	tests := 0
	for _, r := range results {
		if r == nil || r.report == nil {
			continue
		}
		detect += r.report.Timing.DetectMS
		explain += r.report.Timing.ExplainMS
		resolv += r.report.Timing.ResolveMS
		if r.report.CD != nil {
			tests += r.report.CD.Tests
		}
	}
	na := float64(max(analyzes, 1))
	p.setLayer("core.detect_ms_per_op", detect/na, analyzes)
	p.setLayer("core.explain_ms_per_op", explain/na, analyzes)
	p.setLayer("core.resolve_ms_per_op", resolv/na, analyzes)
	p.setLayer("cd.tests_per_op", float64(tests)/na, analyzes)

	m1, err := s.poll.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	computes := m1.Cache.CDComputes - m0.Cache.CDComputes
	hits := m1.Cache.CDHits - m0.Cache.CDHits
	p.setLayer("facade.cd_hit_ratio", ratio(hits, hits+computes), hits+computes)
	p.setLayer("planner.round_trips_saved_per_op", float64(m1.Planner.RoundTripsSaved-m0.Planner.RoundTripsSaved)/ops, n)
	served := (cs.Hits - cache0.Hits) + (cs.Derived - cache0.Derived)
	fetches := cs.Fetches - cache0.Fetches
	p.setLayer("countcache.fetches_per_op", float64(fetches)/ops, n)
	p.setLayer("countcache.hit_ratio", ratio(served, served+fetches), served+fetches)
	p.setLayer("countcache.cells", float64(cache.TotalCachedCells()), 1)
	p.setLayer("countcache.delta_applied_per_append", float64(cs.DeltaApplied-cache0.DeltaApplied)/float64(max(appends, 1)), appends)

	v, c := s.handlerLog.p50(time.Millisecond)
	p.setLayer("server.handler_ms_p50", v, c)
	v, c = s.clientLog.p50(time.Millisecond)
	p.setLayer("client.request_ms_p50", v, c)
	p.setLayer("admission.queued_ratio", ratio(queuedPolls, polls), polls)
	a0, a1 := m0.Admission, m1.Admission
	shed := (a1.ShedQueueFull - a0.ShedQueueFull) + (a1.ShedDeadline - a0.ShedDeadline) +
		(a1.ShedDraining - a0.ShedDraining) + (m1.RateLimited - m0.RateLimited)
	p.setLayer("admission.shed_ratio", float64(shed)/ops, n)

	du1, err := dirBytes(s.dataDir)
	if err != nil {
		return nil, err
	}
	user := 0
	for _, r := range results {
		if r != nil && r.kind == "append" && r.err == nil {
			user += e.userB[e.plan[r.index].batch]
		}
	}
	p.setLayer("catalog.bytes_written_per_user_byte", ratio(int(du1-du0), user), appends)
	p.setLayer("runtime.alloc_mb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/ops, n)
	p.setLayer("runtime.gc_cycles_per_op", float64(ms1.NumGC-ms0.NumGC)/ops, n)
	return p, nil
}

// do runs planned operation i on the calling goroutine.
func (s *svcSystem) do(ctx context.Context, i int) *svcOpResult {
	e := s.e
	o := e.plan[i]
	r := &svcOpResult{op: &op{kind: "analyze", index: i}}
	r.start = time.Now()
	if o.append {
		r.kind = "append"
		resp, err := s.client.Append(ctx, serviceDataset, e.batches[o.batch])
		r.err = err
		if err == nil {
			r.version, r.rows = resp.Version, resp.Rows
		}
	} else {
		r.report, r.err = s.client.Analyze(ctx, e.queries[o.query])
	}
	r.end = time.Now()
	r.latency = r.end.Sub(r.start)
	return r
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// check compares every analysis with a mem reference over the rows of a
// snapshot version current while the request was in flight (the server
// pins one version per request; the client sees which versions were
// acknowledged before the request started and after it ended), and every
// append acknowledgement with the planned row total.
func (e *serviceEnv) check(ctx context.Context, p *pass) error {
	results := p.detail.([]*svcOpResult)
	type window struct {
		version    uint64
		start, end time.Time
	}
	var windows []window
	batchOf := make(map[uint64]int) // version -> batch that produced it
	for _, r := range results {
		if r == nil || r.kind != "append" || r.err != nil {
			continue
		}
		batchOf[r.version] = e.plan[r.index].batch
		windows = append(windows, window{r.version, r.start, r.end})
		r.digest = fmt.Sprint(r.version)
		r.wrong = r.rows != serviceRows+int(r.version-1)*serviceBatch
	}
	type need struct {
		version uint64
		query   int
	}
	candidates := make(map[*svcOpResult][]need)
	var needs []need
	for _, r := range results {
		if r == nil || r.kind != "analyze" || r.err != nil {
			continue
		}
		var err error
		if r.digest, err = wireDigest(r.report); err != nil {
			return err
		}
		lo, hi := uint64(1), uint64(1)
		for _, w := range windows {
			if !w.end.After(r.start) && w.version > lo {
				lo = w.version
			}
			if !w.start.After(r.end) && w.version > hi {
				hi = w.version
			}
		}
		for v := lo; v <= hi; v++ {
			n := need{v, e.plan[r.index].query}
			candidates[r] = append(candidates[r], n)
			needs = append(needs, n)
		}
	}
	// One reference session per version, each analyzing the queries needed
	// at that version.
	byVersion := make(map[uint64]map[int]bool)
	var versions []uint64
	for _, n := range needs {
		if byVersion[n.version] == nil {
			byVersion[n.version] = make(map[int]bool)
			versions = append(versions, n.version)
		}
		byVersion[n.version][n.query] = true
	}
	want := make(map[need]string)
	var mu sync.Mutex
	err := forEach(len(versions), func(i int) error {
		v := versions[i]
		digests, err := e.reference(ctx, v, byVersion[v], batchOf)
		if err != nil {
			return err
		}
		mu.Lock()
		for q, d := range digests {
			want[need{v, q}] = d
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	for r, ns := range candidates {
		r.wrong = true
		for _, n := range ns {
			if want[n] == r.digest {
				r.wrong = false
			}
		}
	}
	return nil
}

// reference analyzes queries on a mem session over the rows of version v
// and returns their digests.
func (e *serviceEnv) reference(ctx context.Context, v uint64, queries map[int]bool, batchOf map[uint64]int) (map[int]string, error) {
	tab, err := e.tableAt(v, batchOf)
	if err != nil {
		return nil, err
	}
	ref := hypdb.Open(tab)
	defer ref.Close()
	out := make(map[int]string)
	for qi := range queries {
		req := e.queries[qi]
		q, err := req.Query.ToQuery(serviceDataset)
		if err != nil {
			return nil, err
		}
		opts, err := req.Options.ToOptions()
		if err != nil {
			return nil, err
		}
		rep, err := ref.Analyze(ctx, q, opts...)
		if err != nil {
			return nil, fmt.Errorf("reference analyze at version %d: %w", v, err)
		}
		if out[qi], err = reportDigest(rep); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tableAt returns the rows of snapshot version v: the upload, then the
// batches in the order the server acknowledged them.
func (e *serviceEnv) tableAt(v uint64, batchOf map[uint64]int) (*dataset.Table, error) {
	idx := make([]int, 0, serviceRows+int(v-1)*serviceBatch)
	for i := 0; i < serviceRows; i++ {
		idx = append(idx, i)
	}
	for u := uint64(2); u <= v; u++ {
		b, ok := batchOf[u]
		if !ok {
			return nil, fmt.Errorf("version %d was never acknowledged", u)
		}
		lo := serviceRows + b*serviceBatch
		for i := lo; i < lo+serviceBatch; i++ {
			idx = append(idx, i)
		}
	}
	return e.full.SelectRows(idx)
}
