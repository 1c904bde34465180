// Command perfbench is the end-to-end benchmark of ugs-serve. It generates
// a seeded corpus, boots the ugs-serve binary as a child process, drives one
// workload against it from a single load-generator process, checks the
// answers against the library estimator, and prints every metric with its
// unit. With -trace 1 it also replays the stream through each layer's public
// entry points in process and reports per-layer metrics instead.
//
// Run it through run.sh from the repository root, which builds both
// binaries from source:
//
//	bash perfbench/run.sh --workload read --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ugs"
	"ugs/internal/serve"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var (
		name     = flag.String("workload", "", "workload: read, write or sparsify")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same request stream")
		seconds  = flag.Int("seconds", 30, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 = also replay the stream in process and report per-layer metrics")
		serveBin = flag.String("serve", "", "path of the ugs-serve binary")
		work     = flag.String("work", "", "scratch directory for corpora, logs and records")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *serveBin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -serve BIN -work DIR --workload read|write|sparsify --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// A run that hangs fails instead of outliving its time limit; the
	// children die with the process.
	time.AfterFunc(runLimit, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", runLimit)
		os.Exit(1)
	})
	b := &bench{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		serveBin: *serveBin, dir: filepath.Join(*work, w.Name), conns: runtime.NumCPU()}
	rec, err := b.run(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec.Seconds = *seconds
	if err := appendRecord(filepath.Join(*work, "records.jsonl"), rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing record:", err)
		os.Exit(1)
	}
	attempted, failed := 0, 0
	for _, c := range rec.Ops {
		attempted += c.Attempted
		failed += c.Failed
	}
	line, _ := json.Marshal(map[string]any{"correct": rec.Correct, "attempted": attempted, "failed": failed, "metrics": rec.Metrics})
	fmt.Println(string(line))
}

// runLimit bounds a whole run, set-up to result.
const runLimit = 170 * time.Second

// setups is how many times a run generates the corpus, boots a server and
// warms it up; setup_s is the median. Each server then serves one slice of
// the measured window. The planner calibrates each server's graphs from
// timing probes and picks different lane widths and fan-outs from one
// calibration to the next, so pooling several servers averages over its
// choice instead of sampling it once. More, shorter slices leave each
// server too few requests for its caches to warm.
const setups = 4

// queryTail and primaryTail are the percentiles reported as the tails of
// query latency and of the primary request's latency.
const (
	queryTail   = 95
	primaryTail = 90
)

type bench struct {
	w        workload
	seed     int64
	window   time.Duration
	trace    bool
	serveBin string
	dir      string
	conns    int // clients and connections at most: nproc

	inputs  string                // the benchmark's own copy of the corpus
	graphs  map[string]*ugs.Graph // the corpus at generation 1, for checks
	results []result
}

// setUp generates the corpus into dir, boots a server on it and warms it up.
func (b *bench) setUp(dir string) (*child, error) {
	if err := genCorpus(b.w, filepath.Join(dir, "graphs")); err != nil {
		return nil, err
	}
	budget, err := storeBudget(b.w, filepath.Join(dir, "graphs"))
	if err != nil {
		return nil, err
	}
	c, err := startServer(b.serveBin, filepath.Join(dir, "graphs"), budget, filepath.Join(dir, "tmp"))
	if err != nil {
		return nil, err
	}
	if err := warmUp(context.Background(), newLoadgen(c.base, 1), b.w); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// warmRequests is the first touch of each graph: the query shapes that make
// the planner calibrate (a wide budget and a multi-source pair set), or for
// a rare graph the single-source shape the stream sends it. Rare graphs go
// first, so the store's least recently used graph at the window's start is
// a rare one and the query mix's graphs stay resident.
func warmRequests(w workload) []request {
	var reqs []request
	graphs := slices.Clone(w.Graphs)
	sort.SliceStable(graphs, func(i, j int) bool {
		return slices.Contains(w.Mix.Rare, graphs[i].Name) && !slices.Contains(w.Mix.Rare, graphs[j].Name)
	})
	for _, g := range graphs {
		shapes := []serve.QueryRequest{
			{Graph: g.Name, Kind: "reliability", Pairs: [][2]int{{0, 1}, {1, 2}}, Samples: 512},
			{Graph: g.Name, Kind: "reliability", Pairs: [][2]int{{0, 1}, {1, 2}}, Samples: 64},
		}
		if slices.Contains(w.Mix.Rare, g.Name) {
			shapes = []serve.QueryRequest{{Graph: g.Name, Kind: "reliability", Pairs: [][2]int{{0, 1}}, Samples: 64}}
		}
		for i := range shapes {
			reqs = append(reqs, request{Op: opQuery, Graph: g.Name, Query: &shapes[i]})
		}
	}
	return reqs
}

func warmUp(ctx context.Context, lg *loadgen, w workload) error {
	defer lg.close()
	for _, r := range warmRequests(w) {
		var res result
		lg.exec(ctx, &r, &res)
		if !res.ok() {
			return fmt.Errorf("warm-up query on %s: status %d: %v %s", r.Graph, res.Status, res.Err, res.Body)
		}
	}
	return nil
}

func (b *bench) run(out io.Writer) (record, error) {
	rec := record{Schema: recordSchema, Fingerprint: hostFingerprint(), Commit: commit(),
		Workload: b.w, Seed: b.seed, Trace: b.trace, Metrics: map[string]metric{}}
	if err := os.RemoveAll(b.dir); err != nil {
		return rec, err
	}
	// The benchmark's own copy of the corpus, for replicas and answer checks.
	b.inputs = filepath.Join(b.dir, "inputs")
	if err := genCorpus(b.w, b.inputs); err != nil {
		return rec, err
	}
	b.graphs = map[string]*ugs.Graph{}
	for _, g := range b.w.Graphs {
		mg, err := ugs.OpenMappedGraph(filepath.Join(b.inputs, g.Name+".ugsb"))
		if err != nil {
			return rec, err
		}
		defer mg.Close()
		b.graphs[g.Name] = mg
	}
	// Each set-up's server serves one slice of the window with its own
	// stream.
	slice := b.window / setups
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	var setupTimes, rss []float64
	var stats [][2]*serve.StatsResponse
	var cycle atomic.Int64
	for k := 0; k < setups; k++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("setup%d", k))
		start := time.Now()
		c, err := b.setUp(dir)
		if err != nil {
			return rec, fmt.Errorf("set-up %d: %w", k, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		// Collect the set-up's garbage now, so that the benchmark's own
		// collector does not compete with the server inside the window.
		debug.FreeOSMemory()
		res, st, peak, err := b.measure(ctx, c, k, slice, &cycle)
		c.stop()
		if err != nil {
			return rec, fmt.Errorf("slice %d: %w", k, err)
		}
		for i := range res {
			res[i].Slice = k
		}
		b.results = append(b.results, res...)
		stats = append(stats, st)
		rss = append(rss, peak)
		if err := os.RemoveAll(dir); err != nil {
			return rec, err
		}
	}

	// The answer check runs after the window so it does not compete for
	// the cores.
	var (
		checked int
		err     error
	)
	switch {
	case b.w.Sparsify:
		checked, err = checkSparsify(ctx, b.results, b.graphs)
	case b.w.Patches > 0:
		checked, err = checkWrites(ctx, b.results, b.graphs)
	default:
		checked, err = checkReads(ctx, b.results, b.graphs)
	}
	if err != nil {
		return rec, fmt.Errorf("answer check: %w", err)
	}
	if err := dumpResults(filepath.Join(b.dir, "requests.jsonl"), b.results); err != nil {
		return rec, err
	}

	rec.Ops = opCounts(b.results)
	rec.Correct = true
	for i := range b.results {
		if b.results[i].Wrong != "" {
			rec.Correct = false
			fmt.Fprintf(out, "wrong answer: %s %s: %s\n", b.results[i].Req.Op, b.results[i].Req.Graph, b.results[i].Wrong)
		}
	}
	fmt.Fprintf(out, "workload %s  seed %d  window %s  %d answers checked\n", b.w.Name, b.seed, b.window, checked)
	for _, op := range []opKind{opQuery, opPatch, opSparsify} {
		if n, ok := rec.Ops[op.String()]; ok {
			fmt.Fprintf(out, "  %-8s attempted %d  succeeded %d  failed %d\n", op, n.Attempted, n.Succeeded, n.Failed)
		}
	}
	e2e, err := b.endToEnd(out, median(setupTimes), median(rss))
	if err != nil {
		return rec, err
	}
	layers := counterLayers(stats)
	if b.trace {
		if err := b.replay(ctx, layers); err != nil {
			return rec, fmt.Errorf("traced replay: %w", err)
		}
		rec.Metrics = layers
	} else {
		rec.Metrics = e2e
	}
	printMetrics(out, "per-layer", layers)
	return rec, nil
}

// sliceSeed derives the stream seed of slice k from the workload seed.
func sliceSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// measure sends slice k's stream to c and returns the results, the
// server's counters before and after, and its peak resident set. cycle
// numbers sparsify cycles across slices.
func (b *bench) measure(ctx context.Context, c *child, k int, slice time.Duration, cycle *atomic.Int64) ([]result, [2]*serve.StatsResponse, float64, error) {
	var st [2]*serve.StatsResponse
	var err error
	if st[0], err = c.stats(ctx); err != nil {
		return nil, st, 0, err
	}
	lg := newLoadgen(c.base, b.conns)
	res, err := lg.closedLoop(ctx, b.clients(lg, k, slice, cycle), slice)
	lg.close()
	if err != nil {
		return nil, st, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, st, 0, fmt.Errorf("load did not finish: %w", err)
	}
	if st[1], err = c.stats(ctx); err != nil {
		return nil, st, 0, err
	}
	peak, err := c.peakRSSMB()
	return res, st, peak, err
}

// clients returns the cycle sources of slice k's clients: one per
// connection, so that the server is kept busy. On a shared virtual machine
// the latency of a request that finds the server idle follows how fast the
// host wakes its idle cores, not the program.
func (b *bench) clients(lg *loadgen, k int, slice time.Duration, cycle *atomic.Int64) []func() ([]request, error) {
	var out []func() ([]request, error)
	switch {
	case b.w.Sparsify:
		// Cycles are numbered across clients and slices, so that each
		// sparsifies a distinct (graph, alpha, seed).
		for c := 0; c < b.conns; c++ {
			out = append(out, func() ([]request, error) { return sparsifyCycle(b.w, b.seed, int(cycle.Add(1)-1)), nil })
		}
	case b.w.Patches > 0:
		// Each client patches graphs of its own, so every graph's batches
		// arrive in order. Each slice's server starts the graphs afresh at
		// generation 1.
		n := min(b.conns, len(b.w.Mix.Small))
		for c := 0; c < n; c++ {
			var graphs []string
			for j := c; j < len(b.w.Mix.Small); j += n {
				graphs = append(graphs, b.w.Mix.Small[j])
			}
			next, i := writeCycles(b.w, sliceSeed(b.seed, k)*101+int64(c), b.graphs, graphs), 0
			out = append(out, func() ([]request, error) {
				i++
				return next(i - 1)
			})
		}
	default:
		// The clients take turns drawing from one stream, so a slice sends
		// a prefix of its stream whatever the timing. Client 0 also sends
		// the rare-graph queries, at evenly spaced times of the slice.
		var mu sync.Mutex
		qg := readStream(b.w, sliceSeed(b.seed, k), k)
		rare, sent := b.w.Mix.RarePerSlice, 0
		for c := 0; c < b.conns; c++ {
			out = append(out, func() ([]request, error) {
				mu.Lock()
				defer mu.Unlock()
				var q *serve.QueryRequest
				if c == 0 && sent < rare && lg.since() >= slice*time.Duration(2*sent+1)/time.Duration(2*rare) {
					q = qg.rareQuery()
					sent++
				} else {
					q = qg.next("")
				}
				return []request{{Op: opQuery, Graph: q.Graph, Query: q}}, nil
			})
		}
	}
	return out
}

func opCounts(res []result) map[string]opCount {
	counts := map[string]opCount{}
	for i := range res {
		r := &res[i]
		c := counts[r.Req.Op.String()]
		c.Attempted++
		if r.failed() {
			c.Failed++
		} else {
			c.Succeeded++
		}
		counts[r.Req.Op.String()] = c
	}
	return counts
}

// latencies returns the latencies in ms of the successful results of op.
func latencies(res []result, op opKind) []float64 {
	var xs []float64
	for i := range res {
		if r := &res[i]; r.Req.Op == op && !r.failed() {
			xs = append(xs, r.latencyMS())
		}
	}
	return xs
}

// endToEnd computes and prints every end-to-end metric the workload has,
// and returns those recorded in BENCHMARK.json.
func (b *bench) endToEnd(out io.Writer, setupS, rssMB float64) (map[string]metric, error) {
	all := map[string]metric{
		"setup_s":     {setupS, "s"},
		"peak_rss_mb": {rssMB, "MB"},
	}
	queries := latencies(b.results, opQuery)
	primary := b.w.primary()
	prim := latencies(b.results, primary)
	for name, xs := range map[string][]float64{"query_p50_ms": queries, "primary_p50_ms": prim} {
		v, err := percentile(xs, 50)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		all[name] = metric{v, "ms"}
	}
	// Tails are printed, not recorded: on a shared 2-core host their spread
	// between runs is as wide as any bound a regression check could use.
	// Each is reported at its percentile, or at the highest one below it
	// that the sample supports.
	extra := map[string]metric{}
	tail := func(name string, xs []float64, p float64) {
		if p = min(p, highestLevel(len(xs))); p > 0 {
			v, _ := percentile(xs, p)
			extra[fmt.Sprintf("%s_p%g_ms", name, p)] = metric{v, "ms"}
		}
	}
	tail("query", queries, queryTail)
	tail("primary", prim, primaryTail)
	fmt.Fprintf(out, "  %d queries; primary request is %s, %d of them\n", len(queries), primary, len(prim))

	// The remaining metrics are printed but not recorded either: not every
	// workload has them, or they are 0 on a healthy run.
	attempted, failed := 0, 0
	for _, c := range opCounts(b.results) {
		attempted += c.Attempted
		failed += c.Failed
	}
	extra["error_rate"] = metric{float64(failed) / float64(max(1, attempted)), "ratio"}
	for _, op := range []opKind{opPatch, opSparsify} {
		xs := latencies(b.results, op)
		if len(xs) == 0 {
			continue
		}
		tail(op.String(), xs, 50)
		tail(op.String(), xs, primaryTail)
	}
	if primary == opQuery {
		extra["query_rate_rps"] = metric{float64(len(queries)) / b.window.Seconds(), "req/s"}
	}
	if b.w.Sparsify {
		mae, speedup := sparseQuality(b.results)
		extra["sparse_rl_mae"] = metric{mae, "abs"}
		extra["sparse_query_speedup"] = metric{speedup, "x"}
	}
	printMetrics(out, "end-to-end", all)
	printMetrics(out, "also", extra)
	return all, nil
}

func printMetrics(out io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s:\n", title)
	for _, n := range names {
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// sparseQuality returns the mean absolute difference between reliability
// on each sparsified result and on its original, and the median latency of
// the reliability query on originals over that on results.
func sparseQuality(res []result) (mae, speedup float64) {
	type pair struct{ orig, sparse []*float64 }
	cycles := map[int]*pair{}
	var origLat, sparseLat []float64
	for i := range res {
		r := &res[i]
		if r.Req.Op != opQuery || r.Req.Query.Kind != "reliability" || r.failed() {
			continue
		}
		var q serve.QueryResponse
		if json.Unmarshal(r.Body, &q) != nil {
			continue
		}
		p := cycles[r.Req.Cycle]
		if p == nil {
			p = &pair{}
			cycles[r.Req.Cycle] = p
		}
		if r.Req.OnResult {
			p.sparse = q.Values
			sparseLat = append(sparseLat, r.latencyMS())
		} else {
			p.orig = q.Values
			origLat = append(origLat, r.latencyMS())
		}
	}
	var diffs []float64
	for _, p := range cycles {
		if p.orig == nil || p.sparse == nil {
			continue
		}
		var sum float64
		for i := range p.orig {
			sum += math.Abs(*p.orig[i] - *p.sparse[i])
		}
		diffs = append(diffs, sum/float64(len(p.orig)))
	}
	return mean(diffs), median(origLat) / median(sparseLat)
}

// counterLayers maps /v1/stats deltas summed over the measured slices onto
// per-layer metric names.
func counterLayers(stats [][2]*serve.StatsResponse) map[string]metric {
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	var d struct {
		qHits, qMiss, qShared, wHits, wMiss, coalesced, requests, flights, evictions, loads, conversions int64
		worldBytes                                                                                       []float64
	}
	for _, st := range stats {
		a, b := st[1], st[0]
		d.qHits += a.QueryCache.Hits - b.QueryCache.Hits
		d.qMiss += a.QueryCache.Misses - b.QueryCache.Misses
		d.qShared += a.QueryCache.Shared - b.QueryCache.Shared
		d.wHits += a.WorldCache.Hits - b.WorldCache.Hits
		d.wMiss += a.WorldCache.Misses - b.WorldCache.Misses
		d.coalesced += a.Batcher.Coalesced - b.Batcher.Coalesced
		d.requests += a.Batcher.Requests - b.Batcher.Requests
		d.flights += a.Batcher.Flights - b.Batcher.Flights
		d.evictions += a.Store.Evictions - b.Store.Evictions
		d.loads += a.Store.Loads - b.Store.Loads
		d.conversions += a.Store.Conversions - b.Store.Conversions
		d.worldBytes = append(d.worldBytes, float64(a.WorldCache.Bytes))
	}
	return map[string]metric{
		"serve.cache.query_hit_ratio":   {ratio(d.qHits, d.qHits+d.qMiss), "ratio"},
		"serve.cache.shared":            {float64(d.qShared), "count"},
		"serve.worldcache.hit_ratio":    {ratio(d.wHits, d.wHits+d.wMiss), "ratio"},
		"serve.worldcache.bytes":        {median(d.worldBytes), "bytes"},
		"serve.batcher.coalesced_ratio": {ratio(d.coalesced, d.requests), "ratio"},
		"serve.batcher.flights":         {float64(d.flights), "count"},
		"serve.store.evictions":         {float64(d.evictions), "count"},
		"serve.store.loads":             {float64(d.loads), "count"},
		"serve.store.conversions":       {float64(d.conversions), "count"},
	}
}

// dumpResults writes one line per request: what was sent and how it went.
func dumpResults(path string, res []result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range res {
		r := &res[i]
		row := map[string]any{"op": r.Req.Op.String(), "graph": r.Req.Graph, "due_ms": ms(r.Due),
			"sent_ms": ms(r.Sent), "done_ms": ms(r.Done), "status": r.Status}
		if q := r.Req.Query; q != nil {
			row["samples"], row["pairs"], row["adaptive"] = q.Samples, len(q.Pairs), q.Confidence != nil
		}
		if r.Err != nil {
			row["error"] = r.Err.Error()
		}
		if r.Wrong != "" {
			row["wrong"] = r.Wrong
		}
		var cached struct{ Cached bool }
		if json.Unmarshal(r.Body, &cached) == nil {
			row["cached"] = cached.Cached
		}
		if err := enc.Encode(row); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
