package queries

import (
	"math/rand"
	"slices"
	"testing"

	"ugs/internal/mc"
	"ugs/internal/ugraph"
)

// probeGroup draws a random source group for a multi-source trial,
// occasionally with duplicate sources — allowed by the kernel contract and
// exercised here so a slot-mixing bug cannot hide behind distinctness.
func probeGroup(rng *rand.Rand, n int) []int {
	size := 1 + rng.Intn(12)
	srcs := make([]int, size)
	for i := range srcs {
		srcs[i] = rng.Intn(n)
	}
	return srcs
}

// checkMSBFSMatchesMaskBFS pins the multi-source kernel at one width: every
// source slot's reach masks and depth sums must equal a dedicated
// single-source MaskBFS traversal from that slot's source, bit for bit.
func checkMSBFSMatchesMaskBFS[V ugraph.Vec](t *testing.T, rng *rand.Rand, trial int) {
	t.Helper()
	g := randomQueryGraph(rng, 8+rng.Intn(40), 0.05+0.3*rng.Float64())
	n := g.NumVertices()
	lanes := 1 + rng.Intn(ugraph.VecLanes[V]())
	seeds := make([]int64, lanes)
	for l := range seeds {
		seeds[l] = rng.Int63()
	}
	wb := ugraph.NewWorldBatch[V](g)
	ugraph.SampleBatchSeeded(g, seeds, wb)
	single := NewMaskBFS[V](n)
	ms := NewMSBFS[V](n, 4) // deliberately smaller than some groups: exercises growth
	for round := 0; round < 3; round++ {
		srcs := probeGroup(rng, n)
		ms.ReachFrom(wb, srcs)
		for k, src := range srcs {
			reach := single.ReachFrom(wb, src)
			depthSum := single.DepthSums()
			for v := 0; v < n; v++ {
				if ms.Reach(v, k) != reach[v] {
					t.Fatalf("trial %d round %d srcs %v slot %d vertex %d: reach %v != single-source %v",
						trial, round, srcs, k, v, ms.Reach(v, k), reach[v])
				}
				if ms.DepthSum(v, k) != depthSum[v] {
					t.Fatalf("trial %d round %d srcs %v slot %d vertex %d: depthSum %d != single-source %d",
						trial, round, srcs, k, v, ms.DepthSum(v, k), depthSum[v])
				}
			}
		}
	}
}

func TestMSBFSMatchesMaskBFSPerSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 8; trial++ {
		checkMSBFSMatchesMaskBFS[ugraph.Vec64](t, rng, trial)
		checkMSBFSMatchesMaskBFS[ugraph.Vec256](t, rng, trial)
	}
}

// checkMSBFSSpecializedMatchesGeneric replays the generic runLevels
// reference on the exact state ReachFrom hands each specialized kernel
// (msbfs_wide.go: every size in msKernelFans at 64 lanes) and demands
// bit-identical reach masks and depth sums — the multi-source analogue of
// TestMaskBFSSpecializedMatchesGeneric. Groups may repeat a source.
func checkMSBFSSpecializedMatchesGeneric(t *testing.T, rng *rand.Rand, trial int) {
	t.Helper()
	g := randomQueryGraph(rng, 8+rng.Intn(40), 0.05+0.3*rng.Float64())
	n := g.NumVertices()
	lanes := 1 + rng.Intn(ugraph.BatchLanes)
	seeds := make([]int64, lanes)
	for l := range seeds {
		seeds[l] = rng.Int63()
	}
	wb := ugraph.NewWorldBatch[ugraph.Vec64](g)
	ugraph.SampleBatchSeeded(g, seeds, wb)
	fast := NewMSBFS[ugraph.Vec64](n, 16)
	ref := NewMSBFS[ugraph.Vec64](n, 16)
	for _, size := range msKernelFans {
		srcs := make([]int, size)
		for i := range srcs {
			srcs[i] = rng.Intn(n)
		}
		fast.ReachFrom(wb, srcs)
		off := ref.start(wb, srcs)
		ref.runLevels(off)
		for v := 0; v < n; v++ {
			for k := range srcs {
				if fast.Reach(v, k) != ref.Reach(v, k) {
					t.Fatalf("trial %d srcs %v vertex %d slot %d: specialized reach %v != generic %v",
						trial, srcs, v, k, fast.Reach(v, k), ref.Reach(v, k))
				}
				if fast.DepthSum(v, k) != ref.DepthSum(v, k) {
					t.Fatalf("trial %d srcs %v vertex %d slot %d: specialized depthSum %d != generic %d",
						trial, srcs, v, k, fast.DepthSum(v, k), ref.DepthSum(v, k))
				}
			}
		}
	}
}

func TestMSBFSSpecializedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 24; trial++ {
		checkMSBFSSpecializedMatchesGeneric(t, rng, trial)
	}
}

// TestMSWorldBFSMatchesScalarBFS pins the scalar multi-source kernel: every
// slot's distances over a sampled world must equal BFS.Distances from that
// slot's source.
func TestMSWorldBFSMatchesScalarBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 10; trial++ {
		g := randomQueryGraph(rng, 8+rng.Intn(40), 0.05+0.3*rng.Float64())
		n := g.NumVertices()
		w := g.SampleWorld(rng)
		ms := NewMSWorldBFS(n, 4)
		bfs := NewBFS(n)
		srcs := probeGroup(rng, n)
		ms.Run(w, srcs)
		for k, src := range srcs {
			dist := bfs.Distances(w, src)
			for v := 0; v < n; v++ {
				if got := ms.Dist(v, k); got != dist[v] {
					t.Fatalf("trial %d srcs %v slot %d vertex %d: dist %d != scalar BFS %d",
						trial, srcs, k, v, got, dist[v])
				}
			}
		}
	}
}

// multiPairCase builds a pair list that stresses the grouped estimators:
// several pairs sharing one source, duplicate pairs, and pairs whose
// sources collide with targets.
func multiPairCase(rng *rand.Rand, n, count int) []Pair {
	pairs := RandomPairs(n, count, rng)
	if count >= 4 && n >= 3 {
		pairs[1].S = pairs[0].S                       // shared source
		pairs[2] = pairs[0]                           // duplicate pair
		pairs[3] = Pair{S: pairs[0].T, T: pairs[0].S} // reversed
	}
	return pairs
}

// TestMultiSourceMatchesPerSource is the estimator-level contract of the
// multi-source engine: for every lane width (including scalar worlds and
// the auto plan), worker count and fan-out, grouped traversals must produce
// bit-identical per-pair SP and RL estimates to the per-source ablation
// (FanOut: 1) on the same seed — over pair lists with shared and duplicate
// sources.
func TestMultiSourceMatchesPerSource(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	g := randomQueryGraph(rng, 60, 0.12)
	pairs := multiPairCase(rng, g.NumVertices(), 40)

	for _, lanes := range []int{1, 0, ugraph.BatchLanes, 4 * ugraph.BatchLanes} {
		var wantSP, wantRL []float64
		for _, workers := range []int{1, 8} {
			for _, fan := range []int{1, 0, 2, 4, 7, 8, 16, 64} {
				opts := mc.Options{Samples: 130, Seed: 99, Workers: workers, Lanes: lanes, FanOut: fan}
				sp, rl, err := ShortestDistanceAndReliability(bg(), g, pairs, opts)
				if err != nil {
					t.Fatalf("lanes=%d workers=%d fan=%d: %v", lanes, workers, fan, err)
				}
				if wantSP == nil {
					wantSP, wantRL = sp, rl
					continue
				}
				for i := range pairs {
					if rl[i] != wantRL[i] {
						t.Fatalf("lanes=%d workers=%d fan=%d pair %d: RL %v != per-source %v",
							lanes, workers, fan, i, rl[i], wantRL[i])
					}
					// NaN (never-connected pair) must match as NaN.
					if sp[i] != wantSP[i] && !(sp[i] != sp[i] && wantSP[i] != wantSP[i]) {
						t.Fatalf("lanes=%d workers=%d fan=%d pair %d: SP %v != per-source %v",
							lanes, workers, fan, i, sp[i], wantSP[i])
					}
				}
			}
		}
	}
}

// TestMultiSourceAcrossWidthsIdentical pins the cross-width contract in the
// multi-source regime: results must not depend on the lane width either.
func TestMultiSourceAcrossWidthsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	g := randomQueryGraph(rng, 40, 0.15)
	pairs := multiPairCase(rng, g.NumVertices(), 24)
	var wantSP, wantRL []float64
	for _, lanes := range []int{1, ugraph.BatchLanes, 4 * ugraph.BatchLanes} {
		opts := mc.Options{Samples: 257, Seed: 7, Workers: 4, Lanes: lanes, FanOut: 8}
		sp, rl, err := ShortestDistanceAndReliability(bg(), g, pairs, opts)
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		if wantSP == nil {
			wantSP, wantRL = sp, rl
			continue
		}
		for i := range pairs {
			if rl[i] != wantRL[i] || (sp[i] != wantSP[i] && !(sp[i] != sp[i] && wantSP[i] != wantSP[i])) {
				t.Fatalf("lanes=%d pair %d: (SP %v, RL %v) != scalar (%v, %v)",
					lanes, i, sp[i], rl[i], wantSP[i], wantRL[i])
			}
		}
	}
}

// TestAdaptiveMultiPairDeterministicAcrossFanOuts pins sequential stopping
// in the multi-source regime: the stopping decision depends only on
// accumulated per-pair counts, which are fan-out-invariant, so the adaptive
// run must take the same rounds and return bit-identical estimates for
// every fan-out and worker count.
func TestAdaptiveMultiPairDeterministicAcrossFanOuts(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	g := randomQueryGraph(rng, 50, 0.1)
	pairs := multiPairCase(rng, g.NumVertices(), 16)
	var wantSP, wantRL []float64
	var wantInfo mc.RunInfo
	first := true
	for _, workers := range []int{1, 8} {
		for _, fan := range []int{1, 0, 8, 64} {
			opts := mc.Options{Seed: 11, Workers: workers, FanOut: fan,
				Target: mc.WithConfidence(0.05, 0.05)}
			sp, rl, info, err := ShortestDistanceAndReliabilityRun(bg(), g, pairs, opts)
			if err != nil {
				t.Fatalf("workers=%d fan=%d: %v", workers, fan, err)
			}
			if first {
				wantSP, wantRL, wantInfo = sp, rl, info
				first = false
				continue
			}
			if info != wantInfo {
				t.Fatalf("workers=%d fan=%d: run info %+v != %+v", workers, fan, info, wantInfo)
			}
			for i := range pairs {
				if rl[i] != wantRL[i] || (sp[i] != wantSP[i] && !(sp[i] != sp[i] && wantSP[i] != wantSP[i])) {
					t.Fatalf("workers=%d fan=%d pair %d: (SP %v, RL %v) != (%v, %v)",
						workers, fan, i, sp[i], rl[i], wantSP[i], wantRL[i])
				}
			}
		}
	}
}

// checkMSBFSAllocs pins one width's warm MSBFS at zero allocations per
// traversal.
func checkMSBFSAllocs[V ugraph.Vec](t *testing.T, rng *rand.Rand, g *ugraph.Graph, srcs []int) {
	t.Helper()
	seeds := make([]int64, ugraph.VecLanes[V]())
	for l := range seeds {
		seeds[l] = rng.Int63()
	}
	wb := ugraph.NewWorldBatch[V](g)
	ugraph.SampleBatchSeeded(g, seeds, wb)
	ms := NewMSBFS[V](g.NumVertices(), len(srcs))
	ms.ReachFrom(wb, srcs)
	if allocs := testing.AllocsPerRun(50, func() { ms.ReachFrom(wb, srcs) }); allocs != 0 {
		t.Errorf("MSBFS[%d lanes].ReachFrom allocates %.1f per call with a warm instance, want 0",
			ugraph.VecLanes[V](), allocs)
	}
}

// TestMSBFSZeroSteadyStateAllocs extends the zero-allocation guarantee to
// the multi-source kernels with warm, group-sized instances: the 64-lane
// 8-source kernel, the generic loop at 256 lanes and the scalar MSWorldBFS.
func TestMSBFSZeroSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomQueryGraph(rng, 50, 0.2)
	srcs := []int{0, 7, 13, 21, 34, 42, 45, 49}
	checkMSBFSAllocs[ugraph.Vec64](t, rng, g, srcs)
	checkMSBFSAllocs[ugraph.Vec256](t, rng, g, srcs)

	w := g.SampleWorld(rand.New(rand.NewSource(5)))
	msw := NewMSWorldBFS(g.NumVertices(), len(srcs))
	msw.Run(w, srcs)
	if allocs := testing.AllocsPerRun(50, func() { msw.Run(w, srcs) }); allocs != 0 {
		t.Errorf("MSWorldBFS.Run allocates %.1f per call with a warm instance, want 0", allocs)
	}
}

// TestPlanFanOut pins the planner's fan-out rule: explicit choices are
// honored up to the distinct-source count, single-source queries never
// group, and the automatic size is exact for every source count — the full
// mask on scalar worlds, the largest specialized kernel size at 64 lanes
// and per-source passes at 256. Every group a planned run traverses —
// leftovers included, e.g. 10 sources at 64 lanes run 8 + 1 + 1 — is a
// single source, a specialized kernel or a scalar group, never the generic
// slot loop.
func TestPlanFanOut(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	g := randomQueryGraph(rng, 30, 0.2)
	cases := []struct {
		opts     mc.Options
		distinct int
		want     int
	}{
		{mc.Options{FanOut: 16}, 256, 16},         // explicit, plenty of sources
		{mc.Options{FanOut: 16}, 5, 5},            // clamped to distinct sources
		{mc.Options{FanOut: 1}, 256, 1},           // per-source ablation
		{mc.Options{}, 1, 1},                      // nothing to group
		{mc.Options{Lanes: 1}, 256, 64},           // scalar auto: full mask
		{mc.Options{Samples: 64}, 256, 8},         // 64 lanes auto: largest kernel
		{mc.Options{Lanes: 1, FanOut: 3}, 9, 3},   // explicit on scalar path
		{mc.Options{Lanes: 256, FanOut: 2}, 9, 2}, // explicit on 256 lanes
	}
	for i, c := range cases {
		o := c.opts.WithDefaults()
		if got := PlanFanOut(g, o, c.distinct, KindPair); got != c.want {
			t.Errorf("case %d (%+v, distinct=%d): fan-out %d, want %d", i, c.opts, c.distinct, got, c.want)
		}
	}

	// want[d-1] is the automatic fan-out for d distinct sources.
	seq := [20]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	kernel64 := [20]int{1, 1, 1, 4, 4, 4, 4, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8}
	auto := []struct {
		name  string
		opts  mc.Options
		lanes int
		want  [20]int
	}{
		{"scalar", mc.Options{Samples: 8}, 1, seq},
		{"64 lanes", mc.Options{Samples: 64}, 64, kernel64},
		{"adaptive", mc.Options{Target: mc.WithConfidence(0.05, 0.05)}, 64, kernel64},
		{"256 lanes", mc.Options{Samples: 512}, 256, [20]int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
	}
	for _, a := range auto {
		if got := PlanLanes(g, a.opts, KindPair); got != a.lanes {
			t.Fatalf("%s: planned %d lanes, want %d", a.name, got, a.lanes)
		}
		for d := 1; d <= len(seq); d++ {
			fan := PlanFanOut(g, a.opts, d, KindPair)
			if fan != a.want[d-1] {
				t.Errorf("%s, %d distinct sources: auto fan-out %d, want %d", a.name, d, fan, a.want[d-1])
			}
			covered := 0
			for _, grp := range sourceGroups(seq[:d], fan, a.lanes) {
				covered += len(grp)
				if a.lanes != 1 && len(grp) > 1 && !hasMSKernel(a.lanes, len(grp)) {
					t.Errorf("%s, %d distinct sources: a group of %d falls to the generic slot loop", a.name, d, len(grp))
				}
			}
			if covered != d {
				t.Errorf("%s, %d distinct sources: groups cover %d sources", a.name, d, covered)
			}
		}
	}

	// The group sizes a run traverses, leftovers and explicit sizes
	// included.
	for _, c := range []struct {
		distinct, fan, lanes int
		want                 []int
	}{
		{10, 8, 64, []int{8, 1, 1}},
		{12, 8, 64, []int{8, 4}},
		{7, 4, 64, []int{4, 1, 1, 1}},
		{5, 16, 64, []int{1, 1, 1, 1, 1}}, // explicit size without a kernel
		{3, 2, 256, []int{1, 1, 1}},
		{10, 4, 1, []int{4, 4, 2}}, // scalar groups take any size
	} {
		var sizes []int
		for _, grp := range sourceGroups(seq[:c.distinct], c.fan, c.lanes) {
			sizes = append(sizes, len(grp))
		}
		if !slices.Equal(sizes, c.want) {
			t.Errorf("%d sources, fan %d, %d lanes: groups %v, want %v", c.distinct, c.fan, c.lanes, sizes, c.want)
		}
	}
}
