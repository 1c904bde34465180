package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"ugs"
	"ugs/internal/gen"
	"ugs/internal/serve"
)

// graphSpec is one corpus graph: an examples/corpus/gen.sh configuration,
// optionally scaled down to fewer vertices at the same average degree.
type graphSpec struct {
	Name string           `json:"name"`
	Cfg  gen.SocialConfig `json:"config"`
}

// corpusKinds are the three examples/corpus/gen.sh configurations at their
// full vertex counts.
var corpusKinds = map[string]gen.SocialConfig{
	"flickr":  {N: 50000, AvgDegree: 40, MeanProb: 0.09, Seed: 101},
	"twitter": {N: 150000, AvgDegree: 15, MeanProb: 0.15, Seed: 202},
	"sparse":  {N: 500000, AvgDegree: 8, MeanProb: 0.12, Seed: 303},
}

// scaled returns the gen.sh configuration of kind resized to about edges
// edges, keeping its degree, probability and seed.
func scaled(kind string, edges int) graphSpec {
	cfg := corpusKinds[kind]
	cfg.N = int(2 * float64(edges) / cfg.AvgDegree)
	return graphSpec{Name: fmt.Sprintf("%s-%dk", kind, edges/1000), Cfg: cfg}
}

func threeKinds(edges int) []graphSpec {
	return []graphSpec{scaled("flickr", edges), scaled("twitter", edges), scaled("sparse", edges)}
}

// small are the three gen.sh configurations at ≈20k edges: the graphs the
// read and write query mixes use.
var small = threeKinds(20000)

// fullSize is the unscaled flickr configuration (≈1M edges).
var fullSize = graphSpec{Name: "flickr-1m", Cfg: corpusKinds["flickr"]}

// sample is the configuration of examples/corpus/sample-social.ugsb
// (600 vertices, ≈3k edges).
var sample = graphSpec{Name: "sample-600", Cfg: gen.SocialConfig{N: 600, AvgDegree: 10, MeanProb: 0.09, Seed: 42}}

func names(gs []graphSpec) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.Name
	}
	return out
}

// queryMix shapes the query stream.
type queryMix struct {
	// Small graphs take the general mix, dealt evenly: reliability or
	// distance with 1–64 pairs from a few hub sources, at 64 or 512 samples
	// or adaptive.
	Small []string `json:"small"`
	// Rare graphs take RarePerSlice requests of each slice, in turn, at
	// evenly spaced times, as a single-source 64-sample query: a shape the
	// planner answers without calibrating, so touching them costs a remap
	// and a fill but no probe. Slice k of the window starts the turn at
	// rare graph k.
	Rare         []string `json:"rare,omitempty"`
	RarePerSlice int      `json:"rare_per_slice,omitempty"`
	// WideShare is the share of 512-sample requests; AdaptiveShare the
	// share of requests that set a confidence target instead of a budget.
	// Both are dealt in tenths.
	WideShare     float64 `json:"wide_share"`
	AdaptiveShare float64 `json:"adaptive_share"`
	// RepeatEvery, when set, makes every RepeatEvery-th small-graph request
	// an exact repeat of an earlier one and keeps all the others distinct,
	// so that every seed sends the same number of result-cache hits.
	// Otherwise repeats happen when the dealt cards happen to coincide.
	RepeatEvery int `json:"repeat_every,omitempty"`
}

// workload is everything a run sends. Its JSON form is recorded with every
// result, so records can only be compared when their parameters match.
type workload struct {
	Name   string      `json:"name"`
	Graphs []graphSpec `json:"graphs"`
	// Budget is the server's -store-budget in bytes; 0 means the corpus
	// total less half the smallest graph (see storeBudget).
	Budget int64    `json:"store_budget,omitempty"`
	Mix    queryMix `json:"mix"`
	// Patches and Queries make each cycle of a client that many PATCH
	// batches on one graph followed by that many queries on it.
	Patches int `json:"patches,omitempty"`
	Queries int `json:"queries,omitempty"`
	// Sparsify makes each cycle of a client a sparsification followed by
	// queries on the original and on the result.
	Sparsify bool `json:"sparsify,omitempty"`
	// A workload with neither sends single queries of the mix.
}

// primary is the request type a workload is named for.
func (w workload) primary() opKind {
	switch {
	case w.Sparsify:
		return opSparsify
	case w.Patches > 0:
		return opPatch
	}
	return opQuery
}

// Workloads, and why each exists:
//
//   - read: the steady-state serving path (result cache, world cache,
//     batcher, sampling, kernels, store remaps) with no writes and no
//     sparsifier. The store budget is below the corpus total: each touch of
//     the 1M-edge graph or of the tiny sample graph evicts the other, so the
//     large graph is evicted and remapped while the query mix's graphs stay
//     resident.
//   - write: PATCH batches, each group followed by read-mix queries on the
//     patched graph. Every patch bumps the graph's generation, so the result
//     cache, the world cache and planner calibration start cold; read cannot
//     show that cost.
//   - sparsify: distinct sparsifications (3 GDB to 1 EMD), each followed by
//     the same queries on the original and on the result — the paper's
//     pipeline, dominated by internal/core.
var workloads = map[string]workload{
	"read": {
		Name:   "read",
		Graphs: append(append([]graphSpec{}, small...), fullSize, sample),
		Mix: queryMix{
			Small: names(small),
			Rare:  []string{fullSize.Name, sample.Name}, RarePerSlice: 4,
			WideShare: 0.2, AdaptiveShare: 0.2, RepeatEvery: 8,
		},
	},
	"write": {
		Name:   "write",
		Graphs: small,
		Budget: 1 << 30,
		// 64-sample queries only: the one calibration a fresh generation
		// costs is then the fan-out probe, the first query after each
		// patch group pays it, and the median falls among warm queries
		// rather than between the budgets.
		Mix:     queryMix{Small: names(small)},
		Patches: 3, Queries: 6,
	},
	"sparsify": {
		Name:     "sparsify",
		Graphs:   threeKinds(12000),
		Budget:   1 << 30,
		Sparsify: true,
	},
}

// opKind is the request type.
type opKind int

const (
	opQuery opKind = iota
	opPatch
	opSparsify
)

func (o opKind) String() string {
	return [...]string{"query", "patch", "sparsify"}[o]
}

// request is one HTTP request of a workload's stream.
type request struct {
	Op    opKind
	Graph string
	Query *serve.QueryRequest
	// Edits is a PATCH batch. Gen is the generation of Graph a patch
	// creates, or a write-cycle query must be answered at.
	Edits []ugs.EdgeEdit
	Gen   int
	// Sparsify is a sparsify request; Cycle numbers closed-loop cycles.
	Sparsify *serve.SparsifyRequest
	Cycle    int
	// OnResult marks a sparsify-cycle query addressed to the result ID.
	OnResult bool
}

// method and path return the HTTP route of r.
func (r *request) method() string {
	if r.Op == opPatch {
		return "PATCH"
	}
	return "POST"
}

func (r *request) path() string {
	switch r.Op {
	case opPatch:
		return "/v1/graphs/" + r.Graph + "/edges"
	case opSparsify:
		return "/v1/sparsify"
	}
	return "/v1/query"
}

// body returns the JSON request body.
func (r *request) body() []byte {
	var v any
	switch r.Op {
	case opPatch:
		specs := make([]serve.EditSpec, len(r.Edits))
		for i, e := range r.Edits {
			specs[i] = serve.EditSpec{Op: e.Op.String(), U: e.U, V: e.V, P: e.P}
		}
		v = serve.PatchRequest{Edits: specs}
	case opSparsify:
		v = r.Sparsify
	default:
		v = r.Query
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	return b
}

const (
	numHubs      = 4  // hub sources of pair queries: the highest-weight vertices 0..3
	numTemplates = 16 // pair set sizes per graph, dealt by popularity rank
	numVariants  = 4  // pair sets of each size, for RepeatEvery
	numSeeds     = 8  // sample-stream seeds, dealt by popularity rank
	adaptiveEps  = 0.1
)

// deck deals items in a seeded random order, reshuffling after every full
// pass, so each pass holds every item exactly once. Workloads draw from
// decks rather than independently so that every seed sends the same mix in
// a different order, which keeps runs with different seeds comparable.
type deck[T any] struct {
	rng   *rand.Rand
	items []T
	next  int
}

func newDeck[T any](rng *rand.Rand, items ...T) *deck[T] {
	return &deck[T]{rng: rng, items: slices.Clone(items), next: len(items)}
}

func (d *deck[T]) deal() T {
	if d.next == len(d.items) {
		d.rng.Shuffle(len(d.items), func(i, j int) { d.items[i], d.items[j] = d.items[j], d.items[i] })
		d.next = 0
	}
	d.next++
	return d.items[d.next-1]
}

// zipfCards returns a deck of about cards ranks in [0, n) whose counts
// follow Zipf's law (rank r weighted 1/(r+1)), each rank at least once: a
// popular few ranks repeat often, so requests repeat exactly and share
// fills.
func zipfCards(n, cards int) []int {
	var h float64
	for r := 1; r <= n; r++ {
		h += 1 / float64(r)
	}
	var out []int
	for r := 0; r < n; r++ {
		for c := max(1, int(math.Round(float64(cards)/(float64(r+1)*h)))); c > 0; c-- {
			out = append(out, r)
		}
	}
	return out
}

// templateSizes are the pair counts of a graph's pair sets, by popularity
// rank: the popular sets are mid-sized, and every count from 1 to 64
// appears.
var templateSizes = [numTemplates]int{8, 16, 4, 32, 2, 64, 1, 12, 24, 6, 48, 3, 36, 9, 20, 5}

// budget is a query's sample budget: 64 or 512 worlds, or adaptive.
type budget int

const (
	budget64 budget = iota
	budget512
	budgetAdaptive
)

// queryGen draws the query stream.
type queryGen struct {
	rng       *rand.Rand
	mix       queryMix
	vertices  map[string]int
	templates map[string][][][2]int
	graphs    *deck[string]
	kinds     *deck[string]
	budgets   *deck[budget]
	tmpls     *deck[int]
	seeds     *deck[int]
	rare      int // index of the next rare graph
	// sent and drawn are the small-graph requests so far and their cache
	// identities, for mix.RepeatEvery.
	sent  []*serve.QueryRequest
	drawn map[drawKey]bool
}

// drawKey is what makes two queries one result-cache entry: the kind is not
// part of it, since one pass answers reliability and distance together.
type drawKey struct {
	graph               string
	tmpl, variant, seed int
	budget              budget
}

func newQueryGen(rng *rand.Rand, w workload) *queryGen {
	q := &queryGen{
		rng: rng, mix: w.Mix,
		vertices:  map[string]int{},
		templates: map[string][][][2]int{},
		graphs:    newDeck(rng, w.Mix.Small...),
		kinds:     newDeck(rng, "reliability", "distance"),
		tmpls:     newDeck(rng, zipfCards(numTemplates, 48)...),
		seeds:     newDeck(rng, zipfCards(numSeeds, 24)...),
		drawn:     map[drawKey]bool{},
	}
	var budgets []budget
	for i := 0; i < 10; i++ {
		b := budget64
		switch {
		case float64(i) < 10*w.Mix.AdaptiveShare:
			b = budgetAdaptive
		case float64(i) < 10*(w.Mix.AdaptiveShare+w.Mix.WideShare):
			b = budget512
		}
		budgets = append(budgets, b)
	}
	q.budgets = newDeck(rng, budgets...)
	for _, g := range w.Graphs {
		q.vertices[g.Name] = g.Cfg.N
	}
	for _, name := range w.Mix.Small {
		sets := make([][][2]int, numTemplates*numVariants)
		for t := range sets {
			sets[t] = randomPairs(rng, q.vertices[name], numHubs, templateSizes[t/numVariants])
		}
		q.templates[name] = sets
	}
	return q
}

// randomPairs draws count pairs with random targets whose sources cycle
// through the first hubs vertices, so a set of count pairs always has
// min(count, hubs) distinct sources and its traversal cost does not depend
// on the seed.
func randomPairs(rng *rand.Rand, n, hubs, count int) [][2]int {
	pairs := make([][2]int, count)
	for i := range pairs {
		pairs[i] = [2]int{i % hubs, rng.Intn(n)}
	}
	return pairs
}

// next draws the next query; graph, when non-empty, overrides the dealt
// small graph.
func (q *queryGen) next(graph string) *serve.QueryRequest {
	kind := q.kinds.deal()
	seed := q.seeds.deal()
	name := q.graphs.deal()
	if graph != "" {
		name = graph
	}
	tmpl, variant, b := q.tmpls.deal(), 0, q.budgets.deal()
	if every := q.mix.RepeatEvery; every > 0 {
		if len(q.sent) > 0 && len(q.sent)%every == every-1 {
			req := *q.sent[q.rng.Intn(len(q.sent))]
			q.sent = append(q.sent, &req)
			return &req
		}
		// Step to another pair set of the same size, then to the next
		// seed, then to the next size, until the query is one not sent yet.
		for i := 0; q.drawn[drawKey{name, tmpl, variant, seed, b}] && i < numVariants*numSeeds*numTemplates; i++ {
			if variant = (variant + 1) % numVariants; variant == 0 {
				if seed = (seed + 1) % numSeeds; seed == 0 {
					tmpl = (tmpl + 1) % numTemplates
				}
			}
		}
		q.drawn[drawKey{name, tmpl, variant, seed, b}] = true
	}
	req := &serve.QueryRequest{Graph: name, Kind: kind, Seed: 1 + int64(seed),
		Pairs: q.templates[name][tmpl*numVariants+variant]}
	q.sent = append(q.sent, req)
	switch b {
	case budgetAdaptive:
		req.Confidence = &serve.Confidence{Eps: adaptiveEps}
	case budget512:
		req.Samples = 512
	default:
		req.Samples = 64
	}
	return req
}

// rareQuery draws the next query on a rare graph, taking the rare graphs in
// turn.
func (q *queryGen) rareQuery() *serve.QueryRequest {
	name := q.mix.Rare[q.rare%len(q.mix.Rare)]
	q.rare++
	return &serve.QueryRequest{Graph: name, Kind: q.kinds.deal(), Samples: 64, Seed: 1 + int64(q.seeds.deal()),
		Pairs: randomPairs(q.rng, q.vertices[name], 1, 1+q.rng.Intn(64))}
}

// readStream returns the query stream of read slice k, drawn from seed.
func readStream(w workload, seed int64, k int) *queryGen {
	qg := newQueryGen(rand.New(rand.NewSource(seed)), w)
	qg.rare = k
	return qg
}

// writeCycles returns the cycle source of a write client. Cycle i patches
// one of graphs (round robin) with w.Patches batches, then sends w.Queries
// read-mix queries to it. base holds the graphs at their first generation;
// the source keeps its own replicas, so every batch is valid against the
// state the previous batches leave.
func writeCycles(w workload, seed int64, base map[string]*ugs.Graph, graphs []string) func(i int) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	qg := newQueryGen(rng, w)
	sizes := newDeck(rng, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
	replicas := map[string]*ugs.Graph{}
	gens := map[string]int{}
	for name, g := range base {
		replicas[name], gens[name] = g, 1
	}
	return func(i int) ([]request, error) {
		name := graphs[i%len(graphs)]
		var reqs []request
		for k := 0; k < w.Patches; k++ {
			edits := randomEdits(rng, replicas[name], sizes.deal())
			res, err := ugs.ApplyEdits(replicas[name], edits)
			if err != nil {
				return nil, fmt.Errorf("generated batch on %s: %w", name, err)
			}
			replicas[name] = res.Graph
			gens[name]++
			reqs = append(reqs, request{Op: opPatch, Graph: name, Edits: edits, Gen: gens[name], Cycle: i})
		}
		for k := 0; k < w.Queries; k++ {
			q := qg.next(name)
			reqs = append(reqs, request{Op: opQuery, Graph: name, Query: q, Gen: gens[name], Cycle: i})
		}
		return reqs, nil
	}
}

// randomEdits draws a batch mixing insert, delete and reweight that is
// valid against g: inserts name absent pairs, deletes and reweights name
// present edges, and no pair appears twice.
func randomEdits(rng *rand.Rand, g *ugs.Graph, k int) []ugs.EdgeEdit {
	n, m := g.NumVertices(), g.NumEdges()
	used := map[[2]int]bool{}
	key := func(u, v int) [2]int { return [2]int{min(u, v), max(u, v)} }
	var edits []ugs.EdgeEdit
	for len(edits) < k {
		switch op := ugs.EditOp(rng.Intn(3)); op {
		case ugs.EditInsert:
			u, v := rng.Intn(n), rng.Intn(n)
			if _, exists := g.EdgeID(u, v); u == v || exists || used[key(u, v)] {
				continue
			}
			used[key(u, v)] = true
			edits = append(edits, ugs.EdgeEdit{Op: op, U: u, V: v, P: 0.01 + 0.99*rng.Float64()})
		default:
			e := g.Edge(rng.Intn(m))
			if used[key(e.U, e.V)] {
				continue
			}
			used[key(e.U, e.V)] = true
			ed := ugs.EdgeEdit{Op: op, U: e.U, V: e.V}
			if op == ugs.EditReweight {
				ed.P = 0.01 + 0.99*rng.Float64()
			}
			edits = append(edits, ed)
		}
	}
	return edits
}

var alphas = []float64{0.1, 0.2, 0.3, 0.5}

// sparsifyCycle returns sparsify cycle i: a distinct (graph, alpha, seed)
// sparsification, GDB three times in four and EMD the fourth, then a
// reliability and a distance query on the original graph and the same two
// on the result (whose ID the sparsify response supplies). Each method's
// successive cycles take the alphas in seeded order, every alpha once per
// four cycles.
func sparsifyCycle(w workload, seed int64, i int) []request {
	g := w.Graphs[i%len(w.Graphs)]
	method, k := "gdb", i-i/4 // k counts this method's cycles
	if i%4 == 3 {
		method, k = "emd", i/4
	}
	order := rand.New(rand.NewSource(seed*7919 + int64(i%4/3)*104729 + int64(k/len(alphas)))).Perm(len(alphas))
	sp := &serve.SparsifyRequest{Graph: g.Name, Alpha: alphas[order[k%len(alphas)]],
		Spec: ugs.Spec{Method: method, Seed: seed*100_000 + int64(i)}}
	pairs := randomPairs(rand.New(rand.NewSource(g.Cfg.Seed)), g.Cfg.N, numHubs, 16)
	reqs := []request{{Op: opSparsify, Graph: g.Name, Sparsify: sp, Cycle: i}}
	for _, onResult := range []bool{false, true} {
		for k, kind := range []string{"reliability", "distance"} {
			// Distinct seeds per kind: with one seed the distance query
			// would be a result-cache hit on the reliability query's pass.
			q := &serve.QueryRequest{Graph: g.Name, Kind: kind, Pairs: pairs, Samples: 64, Seed: int64(2*i + k + 1)}
			reqs = append(reqs, request{Op: opQuery, Graph: g.Name, Query: q, Cycle: i, OnResult: onResult})
		}
	}
	return reqs
}
