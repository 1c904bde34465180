package queries

import (
	"ugs/internal/mc"
	"ugs/internal/ugraph"
)

// Kind classifies a query for the execution planner: pair queries
// (reliability / shortest distance) fan one traversal out over many
// targets, connectivity sweeps every vertex once, and vector queries
// (PageRank, clustering) need real-valued per-world state that the
// bit-parallel engine cannot carry.
type Kind int

const (
	// KindPair is an s→t reachability / distance query (RL, SP).
	KindPair Kind = iota
	// KindConnectivity is the all-vertices-connected query.
	KindConnectivity
	// KindVector is a per-vertex real-valued query (PageRank, clustering
	// coefficients); always scalar worlds.
	KindVector
)

// wideLanes is the width of fixed budgets beyond one machine word. With
// the sampled-world cache warm, a 512-sample query is all traversal, and
// 256 lanes traverse four words of worlds per arc visit: in
// BenchmarkPlannerRegret 64 lanes is 9–32% slower there. Without the cache
// 64 lanes is up to 27% faster, within the spread in all but two cells
// (README "Planner" has the table).
const wideLanes = 4 * ugraph.BatchLanes

// planLanes resolves the lane width an estimator run will execute at: the
// explicit Options.Lanes when one was set, otherwise a fixed rule on the
// query kind and sample budget. The result is always one of 1, 64, 256.
// opts must have passed Validate.
func planLanes(opts mc.Options, kind Kind) int {
	if kind == KindVector {
		return 1
	}
	if opts.Lanes != 0 {
		return opts.Lanes
	}
	// Adaptive runs start with a MinSamples round (128 by default) and the
	// width is pinned for every round: at 256 lanes that first round is one
	// half-empty batch, which a single worker traverses alone.
	if opts.Target != nil {
		return ugraph.BatchLanes
	}
	samples := opts.WithDefaults().Samples
	// A batch fill costs one pass over the edge list regardless of how many
	// lanes are active; a handful of worlds is cheaper drawn scalar.
	if samples <= 8 {
		return 1
	}
	// One word of lanes already covers the whole budget: wider vectors
	// would traverse mostly-inactive lanes.
	if samples <= ugraph.BatchLanes {
		return ugraph.BatchLanes
	}
	return wideLanes
}

// PlanLanes reports the width an estimator run with opts would execute at —
// the introspection hook behind the README decision table and the
// benchmark's trace. The rule depends on no property of g; g stays in the
// signature those callers use.
func PlanLanes(g *ugraph.Graph, opts mc.Options, kind Kind) int {
	return planLanes(opts, kind)
}

// autoFanOut is the source group size of an automatic run at a lane width
// for a query with distinct sources. Scalar worlds take up to the full
// 64-source mask: the grouped BFS walks each present arc of a level once
// for the whole group at the cost of one extra mask word per vertex, so
// sharing always amortizes, at any group size. At batch widths every group
// slot is a per-vertex state row as wide as the lanes, and only the sizes
// with a specialized kernel pay: 64 lanes takes the largest of
// msKernelFans that fits (8 beats 4 in all 24 of BenchmarkPlannerRegret's
// 16-source cells), and 256 lanes runs per source.
func autoFanOut(lanes, distinct int) int {
	if lanes == 1 {
		return min(mc.MaxFanOut, distinct)
	}
	for _, fan := range msKernelFans {
		if hasMSKernel(lanes, fan) && fan <= distinct {
			return fan
		}
	}
	return 1
}

// planFanOut resolves the source group size a pair-estimator run uses: the
// explicit Options.FanOut when one was set, otherwise autoFanOut at the
// planned lane width. The result is clamped to the number of distinct
// sources (a single-source query never pays group overhead) and is always
// in 1..mc.MaxFanOut. An explicit size is an upper bound on what one
// traversal carries: a group without a specialized kernel at the width (see
// hasMSKernel) runs as per-source passes. Like the lane width, fan-out is a
// pure execution decision — per-pair results are bit-identical across
// every value. opts must have passed Validate.
func planFanOut(opts mc.Options, distinct, lanes int) int {
	fan := opts.FanOut
	if fan == 0 {
		fan = autoFanOut(lanes, distinct)
	}
	return max(1, min(fan, distinct))
}

// PlanFanOut reports the group size an estimator run with opts would use
// for a query with the given number of distinct sources — the introspection
// hook behind the benchmark's trace and tests. Like PlanLanes, it ignores g.
func PlanFanOut(g *ugraph.Graph, opts mc.Options, distinct int, kind Kind) int {
	return planFanOut(opts, distinct, planLanes(opts, kind))
}
