package queries

import (
	"runtime"
	"testing"
	"weak"

	"ugs/internal/gen"
	"ugs/internal/mc"
	"ugs/internal/ugraph"
)

// plannerTestGraph is a flickr-like graph of at least 20k edges: large
// enough that any per-graph work the planner did would show.
func plannerTestGraph(t *testing.T) *ugraph.Graph {
	t.Helper()
	g := gen.FlickrLike(1100, 7)
	if g.NumEdges() < 20000 {
		t.Fatalf("fixture has %d edges, want ≥ 20000", g.NumEdges())
	}
	return g
}

// TestPlanningIsFree: planning a wide multi-source run costs no allocation,
// even on a graph the planner has never seen — every call below plans on a
// fresh *Graph, so per-graph set-up or caching would allocate.
func TestPlanningIsFree(t *testing.T) {
	base := plannerTestGraph(t)
	const runs = 3
	graphs := make([]*ugraph.Graph, runs+1) // AllocsPerRun adds a warm-up call
	for i := range graphs {
		graphs[i] = base.Clone()
	}
	opts := mc.Options{Samples: 512}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		g := graphs[next]
		next++
		PlanLanes(g, opts, KindPair)
		PlanFanOut(g, opts, 4, KindPair)
	})
	if allocs != 0 {
		t.Errorf("planning allocates %.1f per fresh graph, want 0", allocs)
	}
}

// TestPlanningHoldsNoGraph: once a planned run returns and the caller drops
// its graph, nothing the planner kept may keep the graph alive.
func TestPlanningHoldsNoGraph(t *testing.T) {
	g := plannerTestGraph(t)
	wp := weak.Make(g)
	pairs := []Pair{{S: 0, T: 5}, {S: 1, T: 9}, {S: 2, T: 40}, {S: 3, T: 77}}
	if _, _, err := ReliabilityRun(bg(), g, pairs, mc.Options{Samples: 512, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	g = nil
	runtime.GC()
	if wp.Value() != nil {
		t.Error("graph still reachable after its planned run returned and the caller dropped it")
	}
}
