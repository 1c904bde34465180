package queries

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ugs/internal/gen"
	"ugs/internal/mc"
	"ugs/internal/ugraph"
)

// regretGraph is one planner-regret fixture.
type regretGraph struct {
	name string
	g    *ugraph.Graph
}

// regretGraphs are the planner-regret fixtures: FlickrLike(300) and the
// three examples/corpus/gen.sh configurations resized to ≈20k edges (the
// vertex count scaled to keep each one's average degree).
func regretGraphs(b *testing.B) []regretGraph {
	b.Helper()
	graphs := []regretGraph{{"flickr-300", gen.FlickrLike(300, 1)}}
	for _, c := range []struct {
		name string
		cfg  gen.SocialConfig
	}{
		{"flickr-20k", gen.SocialConfig{AvgDegree: 40, MeanProb: 0.09, Seed: 101}},
		{"twitter-20k", gen.SocialConfig{AvgDegree: 15, MeanProb: 0.15, Seed: 202}},
		{"sparse-20k", gen.SocialConfig{AvgDegree: 8, MeanProb: 0.12, Seed: 303}},
	} {
		c.cfg.N = int(2 * 20000 / c.cfg.AvgDegree)
		g, err := gen.Social(c.cfg)
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, regretGraph{c.name, g})
	}
	return graphs
}

// warmFills is a fill cache that keeps every block, so after one run every
// fill of the same (graph, seed) stream is a hit — ugs-serve's world cache
// under repeated seeds.
type warmFills struct {
	mu     sync.Mutex
	blocks map[ugraph.FillKey][]uint64
}

func (c *warmFills) GetOrFill(key ugraph.FillKey, fill func() []uint64) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.blocks[key]; ok {
		return b
	}
	b := fill()
	c.blocks[key] = b
	return b
}

// forcedPlans are the (lanes, fan-out) plans BenchmarkPlannerRegret forces:
// per-source passes at every width, plus every group size with a
// specialized kernel at 64 lanes and the same sizes on scalar worlds. Other
// batch sizes are not plans of their own: their groups run per source.
var forcedPlans = []struct{ lanes, fan int }{
	{1, 1}, {1, 4}, {1, 8},
	{ugraph.BatchLanes, 1}, {ugraph.BatchLanes, 4}, {ugraph.BatchLanes, 8},
	{4 * ugraph.BatchLanes, 1},
}

// BenchmarkPlannerRegret times every forced execution plan (forcedPlans) of
// a reliability query against the automatic one, per graph, budget and
// distinct-source count. Auto's regret in a cell is its time over the
// fastest forced plan's. Budgets are 64 and 512 samples and an adaptive run
// (eps 0.05, capped at ugs-serve's default 20000 samples), each with every
// world sampled (cold) and with every fill served from a warm cache (warm);
// queries carry 16 pairs from the first 1, 2, 3, 4, 6 or 16 vertices (the
// generators' hubs; 2, 3 and 6 leave a group smaller than 4 or 8). Forced
// fan-outs above the source count are skipped — the planner clamps them to
// it — as is the scalar width on adaptive runs, which need the batch engine,
// and on warm ones, whose per-world path never reads the cache.
func BenchmarkPlannerRegret(b *testing.B) {
	budgets := []struct {
		name string
		opts mc.Options
	}{
		{"s64", mc.Options{Samples: 64}},
		{"s512", mc.Options{Samples: 512}},
		{"adaptive", mc.Options{Target: &mc.Target{Eps: 0.05, Delta: 0.05, MaxSamples: 20000}}},
	}
	for _, rg := range regretGraphs(b) {
		for _, bud := range budgets {
			for _, nsrc := range []int{1, 2, 3, 4, 6, 16} {
				for _, warm := range []bool{false, true} {
					rng := rand.New(rand.NewSource(int64(nsrc)))
					pairs := make([]Pair, 16)
					for i := range pairs {
						pairs[i] = Pair{S: i % nsrc, T: rng.Intn(rg.g.NumVertices())}
					}
					run := func(lanes, fan int) func(*testing.B) {
						opts := bud.opts
						opts.Seed, opts.Lanes, opts.FanOut = 1, lanes, fan
						return func(b *testing.B) {
							if warm {
								opts.FillCache = &warmFills{blocks: map[ugraph.FillKey][]uint64{}}
								opts.FillID = rg.name
								if _, _, err := ReliabilityRun(bg(), rg.g, pairs, opts); err != nil {
									b.Fatal(err)
								}
							}
							for b.Loop() {
								if _, _, err := ReliabilityRun(bg(), rg.g, pairs, opts); err != nil {
									b.Fatal(err)
								}
							}
						}
					}
					fills := "cold"
					if warm {
						fills = "warm"
					}
					cell := fmt.Sprintf("%s/%s/%s/src%d/", rg.name, bud.name, fills, nsrc)
					b.Run(cell+"auto", run(0, 0))
					for _, p := range forcedPlans {
						if p.fan > nsrc || p.lanes == 1 && (bud.opts.Target != nil || warm) {
							continue
						}
						b.Run(fmt.Sprintf("%slanes=%d/fan=%d", cell, p.lanes, p.fan), run(p.lanes, p.fan))
					}
				}
			}
		}
	}
}
