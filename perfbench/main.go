// Command perfbench is hypdb's end-to-end benchmark. It runs one named
// workload through hypdb's public entry points, checks every answer
// against an in-memory reference, and prints a table of metrics followed
// by one JSON line:
//
//	go run . --workload flight-sqldb --seed 1 --seconds 18 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// the run executes the same operations twice, once plain and once through
// the benchmark's own wrappers around each layer, and the JSON carries the
// per-layer metrics. README.md documents every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// A workload drives one traffic mix. run executes the planned operations
// and returns what it measured; traced selects the wrapped (per-layer)
// configuration.
type workload struct {
	name string
	// rate is the planned operations per second of --seconds: the run's
	// operation count is fixed by the arguments alone, so two runs with the
	// same seed do identical work on any machine. The rates leave headroom
	// for the answer checks, which run after the timed region.
	rate float64
	// minOps is the least a run plans, however short --seconds is.
	minOps int
	// tripTolerance is the share by which the traced pass's round trips
	// per operation may differ from the plain pass's: source/sqldb and
	// the count cache evict memo entries in Go map order, so identical
	// sequences issue different numbers of round trips. A Flight analysis
	// moves by about 0.1%; an audit sequence, whose count cache runs at
	// its cell limit, moved by up to a quarter between identical runs.
	tripTolerance float64
	// setup builds the inputs from the seed; the returned env runs passes.
	setup func(ctx context.Context, seed int64, nops int, dir string) (env, error)
}

// env is one workload's generated inputs plus the ability to serve them.
type env interface {
	// open brings up the system under test (timed as setup_s) and returns
	// a handle that runs the planned operations.
	open(ctx context.Context, traced bool) (system, error)
	// check compares every operation's answer with the in-memory
	// reference, marking mismatches as failed. It runs outside the timed
	// region.
	check(ctx context.Context, p *pass) error
	close()
}

// system is one opened instance of the system under test.
type system interface {
	// run executes the whole planned sequence; deadline caps it so a slow
	// machine cannot stretch a run without bound.
	run(ctx context.Context, deadline time.Time) (*pass, error)
	close()
}

var workloads = []*workload{
	{name: "flight-sqldb", rate: 0.35, minOps: 3, tripTolerance: 0.05, setup: setupFlightSQL},
	{name: "flight-remote", rate: 0.35, minOps: 3, tripTolerance: 0.05, setup: setupFlightRemote},
	{name: "audit-adult-mem", rate: 6.5, minOps: 10, tripTolerance: 0.4, setup: setupAudit},
	{name: "service-staples-append", rate: 20, minOps: 50, setup: setupService},
}

// Each run opens the system repeatedly and reports the median open as
// setup_s, so one slow open cannot move it: at least setupMinRepeats
// times, and on until setupMinTime has passed or setupMaxRepeats opens are
// done. A flight open takes a few milliseconds, and nine of them left the
// median at the mercy of the scheduler.
const (
	setupMinRepeats = 9
	setupMaxRepeats = 99
	setupMinTime    = time.Second
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer pass")
	)
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	// The library logs through slog; its request lines are not part of
	// the output.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	res, err := measure(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res.print(os.Stdout)
	return 0
}

func workloadNames() string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return strings.Join(out, ", ")
}

// measure runs one workload end to end: set-up, the timed pass (twice
// under tracing), the answer checks, and the metric reduction.
func measure(w *workload, seed int64, seconds int, traced bool) (*result, error) {
	ctx := context.Background()
	probeStart := machineProbe()

	nops := int(float64(seconds)*w.rate + 0.5)
	if traced {
		// Tracing runs the sequence twice; halving it keeps the run length.
		nops = (nops + 1) / 2
	}
	if nops < w.minOps {
		nops = w.minOps
	}
	// run.sh points TMPDIR into the checkout's build directory.
	dir, err := os.MkdirTemp("", "perfbench-run-")
	if err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)

	var phases []string
	mark := time.Now()
	phase := func(name string) {
		phases = append(phases, fmt.Sprintf("%s %.1f s", name, time.Since(mark).Seconds()))
		mark = time.Now()
	}
	e, err := w.setup(ctx, seed, nops, dir)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	defer e.close()

	res := &result{workload: w.name, seed: seed, traced: traced, probeStart: probeStart}
	// The deadline caps each pass at 1.5 times the run length, so a slow
	// machine cannot stretch a run without bound; on a normal machine every
	// planned operation completes.
	budget := 3 * time.Duration(seconds) * time.Second / 2

	phase("inputs")
	sys, err := openRepeated(ctx, e, false, res)
	if err != nil {
		return nil, err
	}
	phase("set-up")
	plain, err := sys.run(ctx, time.Now().Add(budget))
	sys.close()
	if err != nil {
		return nil, err
	}
	phase("warm-up and pass")
	if plain.completed() == 0 {
		return nil, errors.New("no operation completed")
	}
	if err := e.check(ctx, plain); err != nil {
		return nil, fmt.Errorf("answer check: %w", err)
	}
	phase("check")
	res.plain = plain

	if traced {
		tsys, err := e.open(ctx, true)
		if err != nil {
			return nil, fmt.Errorf("traced open: %w", err)
		}
		tp, err := tsys.run(ctx, time.Now().Add(budget))
		tsys.close()
		if err != nil {
			return nil, err
		}
		if tp.completed() == 0 {
			return nil, errors.New("no traced operation completed")
		}
		if err := e.check(ctx, tp); err != nil {
			return nil, fmt.Errorf("traced answer check: %w", err)
		}
		phase("traced pass and check")
		res.tracedPass = tp
		res.traceMismatch = compareTraced(plain, tp, w.tripTolerance)
	}
	res.probeEnd = machineProbe()
	res.phases = strings.Join(phases, ", ")
	return res, nil
}

// openRepeated opens the system as the setup constants say, closing all
// but the last open, and records each open's duration.
func openRepeated(ctx context.Context, e env, traced bool, res *result) (system, error) {
	var sys system
	start := time.Now()
	for i := 0; i < setupMaxRepeats && (i < setupMinRepeats || time.Since(start) < setupMinTime); i++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		s, err := e.open(ctx, traced)
		if err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
		sys = s
	}
	return sys, nil
}

// op is one completed (or failed) operation of a pass.
type op struct {
	kind    string // "analyze", "audit" or "append"
	index   int    // position in the planned sequence
	start   time.Time
	latency time.Duration
	err     error
	// digest is the answer reduced for comparison with the reference;
	// wrong is set by the answer check.
	digest string
	wrong  bool
	// trips counts backend round trips attributed to the operation (only
	// exact for single-caller workloads).
	trips int64
	// cpu is the process's CPU time over the operation (single-caller
	// workloads only): every goroutine's, the collector's and, for
	// flight-remote, the in-process peers'.
	cpu time.Duration
}

func (o *op) failed() bool { return o.err != nil || o.wrong }

// pass is one execution of the planned sequence.
type pass struct {
	ops     []*op
	planned int
	wall    time.Duration // timed wall clock of the whole sequence
	cpu     time.Duration // process CPU time over the timed operations
	trips   int64         // backend round trips over the pass
	rssMB   float64       // peak resident set size at the end of the pass
	heapMB  float64       // heap still live after a collection at the end of the pass
	// layers holds the per-layer metrics (traced passes only), with the
	// sample count behind each.
	layers map[string]layerValue
	// detail is the workload's own per-operation record for its answer
	// check.
	detail any
}

type layerValue struct {
	value   float64
	samples int
}

func (p *pass) setLayer(name string, value float64, samples int) {
	if !slices.ContainsFunc(layerMetrics, func(m struct{ name, unit string }) bool { return m.name == name }) {
		panic("undocumented per-layer metric " + name) // a typo in this program
	}
	if p.layers == nil {
		p.layers = make(map[string]layerValue)
	}
	p.layers[name] = layerValue{value: value, samples: samples}
}

func (p *pass) completed() int {
	n := 0
	for _, o := range p.ops {
		if !o.failed() {
			n++
		}
	}
	return n
}

func (p *pass) failedCount() int {
	return len(p.ops) - p.completed()
}

// latencies returns the latencies in milliseconds of kind's successful
// operations.
func (p *pass) latencies(kind string) []float64 {
	var out []float64
	for _, o := range p.ops {
		if !o.failed() && o.kind == kind {
			out = append(out, float64(o.latency)/float64(time.Millisecond))
		}
	}
	return out
}

// compareTraced reports how the traced pass departs from the plain one.
// With one caller the sequence is deterministic: the answer digests must
// match operation for operation, and the round trips per operation must
// stay within tol of the plain pass's. With two callers the interleaving
// differs from pass to pass, so each answer is held to its reference
// instead (check), and the round trips — a handful of root-cache fetches
// whose number depends on when appends land — are not compared.
func compareTraced(plain, traced *pass, tol float64) string {
	if concurrent(plain) {
		return ""
	}
	var problems []string
	for i := range traced.ops {
		if i < len(plain.ops) && plain.ops[i].digest != traced.ops[i].digest {
			problems = append(problems, fmt.Sprintf("op %d digest differs", i))
			break
		}
	}
	v := perOp(plain.trips, len(plain.ops))
	lo, hi := v*(1-tol), v*(1+tol)
	if got := perOp(traced.trips, len(traced.ops)); len(traced.ops) > 0 && (got < lo || got > hi) {
		problems = append(problems, fmt.Sprintf("traced round_trips_per_op %.1f outside plain range [%.1f, %.1f]", got, lo, hi))
	}
	return strings.Join(problems, "; ")
}

func concurrent(p *pass) bool {
	for _, o := range p.ops {
		if o.kind == "append" {
			return true
		}
	}
	return false
}

func perOp(total int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// forEach calls f(0) … f(n-1) on two goroutines, one per CPU of the
// machine the benchmark is sized for, and returns the first error. The
// answer checks use it: they run after the timed region.
func forEach(n int, f func(i int) error) error {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// retainedHeapMB collects garbage and returns the live heap in MiB: what
// the open system (and the generated inputs) hold between operations.
func retainedHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cpuTime returns the CPU time the process has used, user plus system,
// over all its threads. The kernel leaves out the time the hypervisor
// gave the machine's processors to other guests (steal), which the wall
// clock includes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// machineProbe times a fixed integer loop that touches none of the
// program. It is printed as a diagnostic so a reader can tell machine
// drift from a regression; it never rescales a metric.
func machineProbe() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	if x == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: probe state collapsed")
	}
	return time.Since(t0)
}

// quantile returns the p-quantile of xs (linear interpolation between
// order statistics) and how many samples lie above it.
func quantile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	value = s[lo]
	if lo+1 < len(s) {
		value += (pos - float64(lo)) * (s[lo+1] - s[lo])
	}
	for _, x := range s {
		if x > value {
			beyond++
		}
	}
	return value, beyond
}

func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

// result is everything one run reports.
type result struct {
	workload             string
	seed                 int64
	traced               bool
	setups               []float64
	plain, tracedPass    *pass
	traceMismatch        string
	probeStart, probeEnd time.Duration
	phases               string // wall clock of each phase of the run
}

// metric is one reported figure with its unit and sample count.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
	note    string
}

// primaryKind is the read operation whose latency op_p50_ms reports.
func (r *result) primaryKind() string {
	if strings.HasPrefix(r.workload, "audit") {
		return "audit"
	}
	return "analyze"
}

// endToEnd reduces the plain pass to the end-to-end metrics. The JSON
// keeps the ones defined on every workload; the table adds the
// per-operation-kind percentiles with their sample counts.
func (r *result) endToEnd() (gated, extra []metric) {
	p := r.plain
	n := len(p.ops)
	lat := p.latencies(r.primaryKind())
	v, beyond := quantile(lat, 0.5)
	gated = append(gated,
		metric{name: "setup_s", value: median(r.setups), unit: "s", samples: len(r.setups)},
		metric{name: "op_p50_ms", value: v, unit: "ms", samples: len(lat), note: tenBeyond(beyond)},
		metric{name: "cpu_ms_per_op", value: float64(p.cpu) / float64(time.Millisecond) / float64(max(p.completed(), 1)), unit: "ms", samples: p.completed()},
		metric{name: "retained_heap_mb", value: p.heapMB, unit: "MB", samples: 1},
	)
	// Throughput is the run's mean, so steal time that covers part of a
	// run moves it where the median latency holds; the host once moved it
	// by a quarter between runs of identical code. cpu_ms_per_op gates the
	// work per operation instead.
	extra = append(extra, metric{name: "ops_per_s", value: float64(p.completed()) / p.wall.Seconds(), unit: "1/s", samples: p.completed(), note: "not gated"})
	// The peak resident set depends on where garbage collections fall and
	// moved by up to a fifth between identical runs: printed, not gated.
	extra = append(extra, metric{name: "peak_rss_mb", value: p.rssMB, unit: "MB", samples: 1, note: "not gated"})
	// Round trips are a count the program makes, known not to repeat
	// exactly, and on the service only the root count cache is visible
	// from outside (each request's pinned views are private); they are
	// printed and bound the traced pass instead.
	trips := metric{name: "round_trips_per_op", value: perOp(p.trips, n), unit: "count", samples: n, note: "not gated"}
	if concurrent(p) {
		trips.note = "not gated; root count cache only"
	}
	extra = append(extra, trips)
	for _, k := range []struct {
		kind string
		p    float64
		name string
	}{
		{"analyze", 0.5, "analyze_p50_ms"}, {"analyze", 0.9, "analyze_p90_ms"},
		{"audit", 0.5, "audit_p50_ms"},
		{"append", 0.5, "append_p50_ms"}, {"append", 0.9, "append_p90_ms"},
	} {
		xs := p.latencies(k.kind)
		if len(xs) == 0 {
			continue
		}
		v, beyond := quantile(xs, k.p)
		if beyond < 10 {
			extra = append(extra, metric{name: k.name, unit: "ms", samples: len(xs), note: "not reported: " + tenBeyond(beyond)})
			continue
		}
		extra = append(extra, metric{name: k.name, value: v, unit: "ms", samples: len(xs)})
	}
	extra = append(extra, metric{name: "failed_ratio", value: float64(p.failedCount()) / float64(max(n, 1)), unit: "ratio", samples: n})
	return gated, extra
}

func tenBeyond(beyond int) string {
	if beyond >= 10 {
		return ""
	}
	return fmt.Sprintf("only %d samples beyond", beyond)
}

// perLayer returns the traced pass's per-layer metrics plus the
// trace overhead, in the documented order.
func (r *result) perLayer() []metric {
	t := r.tracedPass
	var out []metric
	for _, m := range layerMetrics {
		lv := t.layers[m.name] // zero where the workload does not reach the layer
		out = append(out, metric{name: m.name, value: lv.value, unit: m.unit, samples: lv.samples})
	}
	out = append(out, metric{name: "trace.overhead_ratio", value: overheadRatio(r.plain, t), unit: "ratio", samples: len(t.ops)})
	return out
}

// overheadRatio is the traced pass's throughput over the plain pass's on
// the same operations: the plain pass's time is summed over the operations
// the traced pass also ran, in case the time cap cut one of them short.
func overheadRatio(plain, traced *pass) float64 {
	if concurrent(plain) {
		plainRate := float64(plain.completed()) / plain.wall.Seconds()
		return float64(traced.completed()) / traced.wall.Seconds() / plainRate
	}
	var plainTime time.Duration
	ran := make(map[int]bool)
	for _, o := range traced.ops {
		ran[o.index] = true
	}
	for _, o := range plain.ops {
		if ran[o.index] {
			plainTime += o.latency
		}
	}
	return plainTime.Seconds() / traced.wall.Seconds()
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v\n", r.workload, r.seed, r.traced)
	fmt.Fprintf(w, "machine probe: %.3f s at start, %.3f s at end (diagnostic only)\n",
		r.probeStart.Seconds(), r.probeEnd.Seconds())
	fmt.Fprintf(w, "phases: %s\n", r.phases)
	p := r.plain
	fmt.Fprintf(w, "planned %d ops, completed %d, failed %d; round trips per op %.1f\n",
		p.planned, p.completed(), p.failedCount(), perOp(p.trips, len(p.ops)))
	if !concurrent(p) {
		var parts []string
		for _, o := range p.ops {
			parts = append(parts, fmt.Sprintf("%.0f/%.0f/%d", float64(o.latency)/float64(time.Millisecond), float64(o.cpu)/float64(time.Millisecond), o.trips))
		}
		fmt.Fprintf(w, "per-op wall ms/CPU ms/round trips: %s\n", strings.Join(parts, " "))
	}
	gated, extra := r.endToEnd()
	row := func(m metric) {
		fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%-5d %s\n", m.name, m.value, m.unit, m.samples, m.note)
	}
	fmt.Fprintln(w, "end-to-end:")
	for _, m := range append(gated, extra...) {
		row(m)
	}
	attempted, failed := len(p.ops), p.failedCount()
	correct := failed == 0
	metrics := map[string]jsonMetric{}
	if r.traced {
		fmt.Fprintln(w, "per-layer (traced pass):")
		for _, m := range r.perLayer() {
			row(m)
			metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
		attempted += len(r.tracedPass.ops)
		failed += r.tracedPass.failedCount()
		correct = failed == 0
		if r.traceMismatch != "" {
			fmt.Fprintf(w, "traced pass departs from the plain pass: %s\n", r.traceMismatch)
			correct = false
		}
	} else {
		for _, m := range gated {
			metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	for _, o := range append(append([]*op(nil), p.ops...), r.tracedOps()...) {
		if o.err != nil {
			fmt.Fprintf(w, "op %d (%s) failed: %v\n", o.index, o.kind, o.err)
		} else if o.wrong {
			fmt.Fprintf(w, "op %d (%s) answer differs from the mem reference\n", o.index, o.kind)
		}
	}
	line, err := json.Marshal(jsonResult{Correct: correct, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	fmt.Fprintln(w, string(line))
}

func (r *result) tracedOps() []*op {
	if r.tracedPass == nil {
		return nil
	}
	return r.tracedPass.ops
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}
