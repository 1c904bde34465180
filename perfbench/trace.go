package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ugs"
	"ugs/internal/core"
	"ugs/internal/queries"
	"ugs/internal/serve"
	"ugs/internal/ugraph"
)

// span is one timed call into a layer. Spans of one replayed request share
// Req; Parent is the enclosing span's ID, or -1 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory. With on false it records nothing, so the
// same replay can run with and without tracing.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(name string, req, parent int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns each span's duration less the part of it its children
// cover; children may overlap each other (parallel fills). A child is
// clipped to its parent: a handler's span can end just after the client
// has its response.
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, curStart, curEnd time.Duration
		open := false
		for _, k := range kids {
			k.Start, k.End = max(k.Start, s.Start), min(k.End, s.End)
			if k.End <= k.Start {
				continue
			}
			switch {
			case !open:
				curStart, curEnd, open = k.Start, k.End, true
			case k.Start > curEnd:
				covered += curEnd - curStart
				curStart, curEnd = k.Start, k.End
			case k.End > curEnd:
				curEnd = k.End
			}
		}
		if open {
			covered += curEnd - curStart
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// tracedFills wraps the replay's world cache: every fill the estimator
// actually computes becomes a child span of the estimator call, and every
// block it uses is kept so the kernel can be replayed over the same worlds.
type tracedFills struct {
	inner       ugs.FillCache
	tr          *tracer
	req, parent int
	fills       atomic.Int64
	mu          sync.Mutex
	blocks      map[int][]uint64
}

func (f *tracedFills) GetOrFill(key ugs.FillKey, fill func() []uint64) []uint64 {
	blk := f.inner.GetOrFill(key, func() []uint64 {
		id := f.tr.begin("ugraph.fill", f.req, f.parent)
		defer f.tr.end(id)
		f.fills.Add(1)
		return fill()
	})
	f.mu.Lock()
	f.blocks[key.Block] = blk
	f.mu.Unlock()
	return blk
}

// traverse runs the traversal kernel the estimator ran — one MaskBFS per
// source, or one MSBFS per fan-sized source group — over the given fill
// blocks, lanes of them per batch, and returns the traversal count.
func traverse[V ugraph.Vec](g *ugs.Graph, blocks [][]uint64, sources []int, fan int) int {
	words := ugraph.VecLanes[V]() / ugraph.BatchLanes
	wb := ugraph.NewWorldBatch[V](g)
	bfs := queries.NewMaskBFS[V](g.NumVertices())
	ms := queries.NewMSBFS[V](g.NumVertices(), max(fan, 1))
	n := 0
	for i := 0; i < len(blocks); i += words {
		grp := blocks[i:min(i+words, len(blocks))]
		ugraph.LoadBlocks(wb, grp, len(grp)*ugraph.BatchLanes)
		for b := 0; b < len(sources); b += max(fan, 1) {
			if fan > 1 {
				ms.ReachFrom(wb, sources[b:min(b+fan, len(sources))])
			} else {
				bfs.ReachFrom(wb, sources[b])
			}
			n++
		}
	}
	return n
}

// replayState is what one replay pass keeps between requests: the
// benchmark's replicas of the served graphs, which the layer calls run on.
type replayState struct {
	tr       *tracer
	srv      *serve.Server
	handler  *tracedHandler
	lg       *loadgen
	corpus   string
	worlds   *serve.WorldCache
	replicas map[string]*ugs.Graph
	mapped   []*ugs.Graph
	remaps   bool               // mirror store remaps (unpatched corpora only)
	sparse   map[int]*ugs.Graph // sparsify results by cycle
	batches  map[string]int     // patch batches per graph since the last compaction
	fillIDs  map[*ugs.Graph]string
	scratch  string
	stats    replayCounts
}

type replayCounts struct {
	wall                        time.Duration
	computed, traversals, fills int
	lanes, fan, samples, rounds []float64
	iterations                  []float64
}

// newReplayServer builds an in-process server with ugs-serve's defaults on
// a corpus directory, and warms it up as the child servers are.
func (b *bench) newReplayServer(ctx context.Context, corpus, convert string) (*serve.Server, error) {
	budget, err := storeBudget(b.w, corpus)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(ctx, serve.Config{GraphDir: corpus, StoreBudgetBytes: budget, ConvertDir: convert})
	if err != nil {
		return nil, err
	}
	for _, r := range warmRequests(b.w) {
		if rec := serveInProcess(srv, &r); rec.Code/100 != 2 {
			srv.Close()
			return nil, fmt.Errorf("warm-up query on %s: %d %s", r.Graph, rec.Code, rec.Body)
		}
	}
	return srv, nil
}

func serveInProcess(srv *serve.Server, r *request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(r.method(), r.path(), bytes.NewReader(r.body())))
	return rec
}

// replayStream is the deterministic subsample of the measured stream that
// the traced run replays: the first slice's requests, whole cycles for the
// cycles (a write cycle's queries need its patches), and of read every
// query on a rare graph (the ones that make the store evict and remap) and
// every k-th of the others.
func (b *bench) replayStream() []*request {
	const maxRequests, maxCycles = 60, 8
	var first []*request
	for i := range b.results {
		if b.results[i].Slice == 0 {
			first = append(first, b.results[i].Req)
		}
	}
	var out []*request
	if b.w.primary() == opQuery {
		step := max(1, (len(first)+maxRequests-1)/maxRequests)
		for i, r := range first {
			if i%step == 0 || slices.Contains(b.w.Mix.Rare, r.Graph) {
				out = append(out, r)
			}
		}
		return out
	}
	for _, r := range first {
		if r.Cycle < maxCycles {
			out = append(out, r)
		}
	}
	return out
}

// replayPairs is how many spans-off and spans-on passes the traced run
// makes; trace.overhead_pct is the median of the pairs' differences.
const replayPairs = 3

// replay runs the traced pass. It replays the stream sequentially on fresh
// in-process servers, alternately without spans and with one span per call
// into a layer's public entry point, and adds the per-layer metrics the
// spans of the last spans-on pass give to layers.
func (b *bench) replay(ctx context.Context, layers map[string]metric) error {
	stream := b.replayStream()
	dir := filepath.Join(b.dir, "replay")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	var (
		st       *replayState
		overhead []float64
		pass     int
	)
	for k := 0; k < replayPairs; k++ {
		// Alternate which pass of a pair goes first, so that a drift in
		// the host's speed does not land on one side.
		order := []bool{k%2 == 1, k%2 == 0}
		var wall [2]time.Duration
		for _, on := range order {
			s, err := b.replayPass(ctx, filepath.Join(dir, fmt.Sprint(pass)), stream, on)
			if err != nil {
				return err
			}
			pass++
			if on {
				st, wall[1] = s, s.stats.wall
			} else {
				wall[0] = s.stats.wall
			}
		}
		overhead = append(overhead, 100*float64(wall[1]-wall[0])/float64(wall[0]))
	}
	spans := st.tr.spans
	if err := writeSpans(filepath.Join(b.dir, "spans.jsonl"), spans); err != nil {
		return err
	}

	self := selfTimes(spans)
	sum := map[string]time.Duration{}
	count := map[string]int{}
	for i, s := range spans {
		sum[s.Name] += self[i]
		count[s.Name]++
	}
	// The handler's time on queries; its time on patches and sparsifies is
	// the layers' below it. The gap is the part of each HTTP round trip
	// outside the handler, on the same requests to the same server.
	var handlerMS, queryHandlerMS, httpMS float64
	queries := 0
	for _, s := range spans {
		ms := float64(s.End-s.Start) / float64(time.Millisecond)
		switch s.Name {
		case "http":
			httpMS += ms
		case "serve.handler":
			handlerMS += ms
			if stream[s.Req].Op == opQuery {
				queryHandlerMS += ms
				queries++
			}
		}
	}
	perSpan := func(name string) float64 {
		if count[name] == 0 {
			return 0
		}
		return float64(sum[name]) / float64(count[name]) / float64(time.Millisecond)
	}
	perQuery := func(v float64) float64 {
		if st.stats.computed == 0 {
			return 0
		}
		return v / float64(st.stats.computed)
	}
	add := func(name string, v float64, unit string) { layers[name] = metric{v, unit} }
	add("serve.handler_ms", queryHandlerMS/float64(max(1, queries)), "ms")
	add("serve.encode_ms", perSpan("serve.encode"), "ms")
	add("serve.store.acquire_ms", perSpan("serve.store.acquire"), "ms")
	add("ugsb.open_ms", perSpan("ugsb.open"), "ms")
	add("ugsb.write_ms", perSpan("ugsb.write"), "ms")
	add("queries.plan_ms", perSpan("queries.plan"), "ms")
	add("queries.plan_lanes", mean(st.stats.lanes), "lanes")
	add("queries.plan_fan_out", mean(st.stats.fan), "sources")
	add("mc.estimator_ms", perSpan("mc.estimator"), "ms")
	add("mc.samples_used", mean(st.stats.samples), "count")
	add("mc.rounds", mean(st.stats.rounds), "count")
	add("ugraph.fill_ms", perQuery(float64(sum["ugraph.fill"])/float64(time.Millisecond)), "ms")
	add("ugraph.fills_per_query", perQuery(float64(st.stats.fills)), "count")
	add("queries.kernel_ms", perSpan("queries.kernel"), "ms")
	add("queries.traversals_per_query", perQuery(float64(st.stats.traversals)), "count")
	add("ugraph.apply_edits_ms", perSpan("ugraph.apply_edits"), "ms")
	add("core.backbone_ms", perSpan("core.backbone"), "ms")
	add("core.sparsify_ms.gdb", perSpan("core.sparsify.gdb"), "ms")
	add("core.sparsify_ms.emd", perSpan("core.sparsify.emd"), "ms")
	add("core.iterations", mean(st.stats.iterations), "count")
	add("trace.gap_pct", 100*(httpMS-handlerMS)/httpMS, "%")
	add("trace.overhead_pct", median(overhead), "%")
	return nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// patchCompactBatches is how many PATCH batches the store applies to a
// graph before it compacts it into a fresh .ugsb sidecar.
const patchCompactBatches = 4

// replayPass replays stream on a fresh in-process server over the
// benchmark's copy of the corpus (the store never writes to its graph
// directory), with spans when on is set. The server listens on a loopback
// port, so each request makes the same HTTP round trip as against the
// child, and the handler is timed inside it.
func (b *bench) replayPass(ctx context.Context, dir string, stream []*request, on bool) (*replayState, error) {
	srvCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	srv, err := b.newReplayServer(srvCtx, b.inputs, filepath.Join(dir, "convert"))
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	tr := &tracer{on: on, t0: time.Now()}
	handler := &tracedHandler{h: srv.Handler(), tr: tr}
	hs := httptest.NewServer(handler)
	defer hs.Close()
	st := &replayState{
		tr: tr, srv: srv, handler: handler, lg: newLoadgen(hs.URL, 1), corpus: b.inputs,
		worlds:   serve.NewWorldCache(64 << 20),
		replicas: map[string]*ugs.Graph{},
		sparse:   map[int]*ugs.Graph{}, batches: map[string]int{}, fillIDs: map[*ugs.Graph]string{},
		scratch: filepath.Join(dir, "scratch"),
		remaps:  b.w.Patches == 0,
	}
	defer st.lg.close()
	defer st.closeMapped()
	if err := os.MkdirAll(st.scratch, 0o755); err != nil {
		return nil, err
	}
	for _, g := range b.w.Graphs {
		if err := st.open(g.Name, -1, -1); err != nil {
			return nil, err
		}
	}
	// Calibrate the replicas as the warm-up calibrated the server's graphs.
	for _, r := range warmRequests(b.w) {
		opts, pairs := queryOptions(r.Query)
		queries.PlanLanes(st.replicas[r.Graph], opts, queries.KindPair)
		queries.PlanFanOut(st.replicas[r.Graph], opts, len(sources(pairs)), queries.KindPair)
	}
	start := time.Now()
	for i, r := range stream {
		if err := st.replayOne(ctx, i, r); err != nil {
			return nil, fmt.Errorf("replaying %s %d on %s: %w", r.Op, i, r.Graph, err)
		}
	}
	st.stats.wall = time.Since(start)
	return st, nil
}

// tracedHandler times the in-process handler as a child of the round-trip
// span of the request being replayed. The replay is sequential, so one
// request at a time sets req and parent.
type tracedHandler struct {
	h           http.Handler
	tr          *tracer
	req, parent atomic.Int64
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := t.tr.begin("serve.handler", int(t.req.Load()), int(t.parent.Load()))
	t.h.ServeHTTP(w, r)
	t.tr.end(id)
}

// open maps a corpus file as the replica of name, the way the store remaps
// an evicted graph.
func (st *replayState) open(name string, req, parent int) error {
	id := st.tr.begin("ugsb.open", req, parent)
	g, err := ugs.OpenMappedGraphTrusted(filepath.Join(st.corpus, name+".ugsb"))
	st.tr.end(id)
	if err != nil {
		return err
	}
	st.mapped = append(st.mapped, g)
	st.replicas[name] = g
	return nil
}

func (st *replayState) closeMapped() {
	for _, g := range st.mapped {
		g.Close()
	}
}

// fillID names a replica's sample stream in the world cache: one name per
// graph value, like the server's versioned graph IDs.
func (st *replayState) fillID(g *ugs.Graph) string {
	if id, ok := st.fillIDs[g]; ok {
		return id
	}
	id := fmt.Sprintf("replica-%d", len(st.fillIDs))
	st.fillIDs[g] = id
	return id
}

// queryOptions returns the estimator options and pairs the server derives
// from q.
func queryOptions(q *serve.QueryRequest) (ugs.MCOptions, []ugs.Pair) {
	pairs := make([]ugs.Pair, len(q.Pairs))
	for i, p := range q.Pairs {
		pairs[i] = ugs.Pair{S: p[0], T: p[1]}
	}
	opts := ugs.MCOptions{Seed: q.Seed, Samples: q.Samples}
	if q.Confidence != nil {
		t := ugs.WithConfidence(q.Confidence.Eps, q.Confidence.Delta)
		t.MaxSamples = serverMaxSamples
		opts = ugs.MCOptions{Seed: q.Seed, Target: t}
	}
	return opts, pairs
}

func sources(pairs []ugs.Pair) []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range pairs {
		if !seen[p.S] {
			seen[p.S] = true
			out = append(out, p.S)
		}
	}
	sort.Ints(out)
	return out
}

// replayOne replays request i: the request over HTTP to the in-process
// server first, then the calls into each layer that the handler's work
// decomposes into, run on the benchmark's replicas. A query on a stored
// graph acquires it from the store before the request, so that a graph the
// store evicted is loaded there and the acquire span times the remap.
func (st *replayState) replayOne(ctx context.Context, i int, r *request) error {
	root := st.tr.begin("request", i, -1)
	defer st.tr.end(root)
	if r.Op == opQuery && !r.OnResult {
		if err := st.acquire(ctx, i, root, r.Graph); err != nil {
			return err
		}
	}
	id := st.tr.begin("http", i, root)
	st.handler.req.Store(int64(i))
	st.handler.parent.Store(int64(id))
	var res result
	st.lg.exec(ctx, r, &res)
	st.tr.end(id)
	if !res.ok() {
		return fmt.Errorf("server answered %d: %v %s", res.Status, res.Err, res.Body)
	}
	switch r.Op {
	case opPatch:
		return st.patch(i, root, r)
	case opSparsify:
		return st.sparsify(ctx, i, root, r)
	}
	return st.query(ctx, i, root, r, res.Body)
}

// acquire takes name from the server's store. A graph the store evicted and
// maps again is a new graph to the planner; so is the replica, opened again
// the same way.
func (st *replayState) acquire(ctx context.Context, i, root int, name string) error {
	loads := st.srv.Store().Stats().Loads
	id := st.tr.begin("serve.store.acquire", i, root)
	_, _, release, err := st.srv.Store().AcquireCtx(ctx, name)
	st.tr.end(id)
	if err != nil {
		return err
	}
	release()
	if st.remaps && st.srv.Store().Stats().Loads > loads {
		return st.open(name, i, root)
	}
	return nil
}

func (st *replayState) patch(i, root int, r *request) error {
	id := st.tr.begin("ugraph.apply_edits", i, root)
	res, err := ugs.ApplyEdits(st.replicas[r.Graph], r.Edits)
	st.tr.end(id)
	if err != nil {
		return err
	}
	st.replicas[r.Graph] = res.Graph
	if st.batches[r.Graph]++; st.batches[r.Graph] < patchCompactBatches {
		return nil
	}
	st.batches[r.Graph] = 0
	path := filepath.Join(st.scratch, r.Graph+".ugsb")
	id = st.tr.begin("ugsb.write", i, root)
	err = ugs.WriteBinaryGraphFile(path, res.Graph)
	st.tr.end(id)
	if err != nil {
		return err
	}
	return os.Remove(path)
}

func (st *replayState) sparsify(ctx context.Context, i, root int, r *request) error {
	g, sp := st.replicas[r.Graph], r.Sparsify
	id := st.tr.begin("core.backbone", i, root)
	_, err := core.SpanningBackbone(g, sp.Alpha, core.BGIOptions{}, rand.New(rand.NewSource(sp.Seed)))
	st.tr.end(id)
	if err != nil {
		return err
	}
	sparsifier, err := sp.Spec.Sparsifier()
	if err != nil {
		return err
	}
	id = st.tr.begin("core.sparsify."+sp.Method, i, root)
	out, err := sparsifier.Sparsify(ctx, g, sp.Alpha)
	st.tr.end(id)
	if err != nil {
		return err
	}
	st.sparse[r.Cycle] = out.Graph
	st.stats.iterations = append(st.stats.iterations, float64(out.Stats.Iterations))
	return nil
}

func (st *replayState) query(ctx context.Context, i, root int, r *request, body []byte) error {
	var resp serve.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	g := st.replicas[r.Graph]
	if r.OnResult {
		g = st.sparse[r.Cycle]
	}
	if resp.Cached {
		// A result-cache hit touches no layer below the cache.
		id := st.tr.begin("serve.encode", i, root)
		_, err := json.Marshal(resp)
		st.tr.end(id)
		return err
	}

	opts, pairs := queryOptions(r.Query)
	srcs := sources(pairs)
	id := st.tr.begin("queries.plan", i, root)
	lanes := queries.PlanLanes(g, opts, queries.KindPair)
	fan := queries.PlanFanOut(g, opts, len(srcs), queries.KindPair)
	st.tr.end(id)
	if opts.Target != nil {
		lanes = max(lanes, ugraph.BatchLanes) // adaptive runs never go scalar
	}

	fills := &tracedFills{inner: st.worlds, tr: st.tr, req: i, blocks: map[int][]uint64{}}
	opts.FillCache, opts.FillID = fills, st.fillID(g)
	id = st.tr.begin("mc.estimator", i, root)
	fills.parent = id
	sp, rl, info, err := ugs.ShortestDistanceAndReliabilityRun(ctx, g, pairs, opts)
	st.tr.end(id)
	if err != nil {
		return err
	}
	// The replayed estimator must agree with the handler bit for bit.
	if wrong := compareAnswer(body, answerValues(r.Query.Kind, sp, rl), info.Samples); wrong != "" {
		return fmt.Errorf("replayed estimator disagrees with the handler: %s", wrong)
	}

	idx := make([]int, 0, len(fills.blocks))
	for k := range fills.blocks {
		idx = append(idx, k)
	}
	sort.Ints(idx)
	blocks := make([][]uint64, len(idx))
	for k, bi := range idx {
		blocks[k] = fills.blocks[bi]
	}
	id = st.tr.begin("queries.kernel", i, root)
	var n int
	switch lanes {
	case ugraph.BatchLanes:
		n = traverse[ugraph.Vec64](g, blocks, srcs, fan)
	case 2 * ugraph.BatchLanes:
		n = traverse[ugraph.Vec128](g, blocks, srcs, fan)
	case 4 * ugraph.BatchLanes:
		n = traverse[ugraph.Vec256](g, blocks, srcs, fan)
	}
	st.tr.end(id)

	id = st.tr.begin("serve.encode", i, root)
	_, err = json.Marshal(resp)
	st.tr.end(id)

	c := &st.stats
	c.computed++
	c.traversals += n
	c.fills += int(fills.fills.Load())
	c.lanes = append(c.lanes, float64(lanes))
	c.fan = append(c.fan, float64(fan))
	c.samples = append(c.samples, float64(info.Samples))
	c.rounds = append(c.rounds, float64(info.Rounds))
	return err
}

// answerValues is the response form of an estimate: the reliability or
// distance values, with null for pairs never connected.
func answerValues(kind string, sp, rl []float64) []*float64 {
	src := rl
	if kind == "distance" {
		src = sp
	}
	vals := make([]*float64, len(src))
	for i, v := range src {
		if !math.IsNaN(v) {
			vals[i] = &v
		}
	}
	return vals
}
