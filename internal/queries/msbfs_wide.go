package queries

import (
	"math/bits"

	"ugs/internal/ugraph"
)

// Fan-specialized level loops for the multi-source mask-BFS kernel.
//
// The generic MSBFS.runLevels pays two costs per (arc, slot) that these
// kernels eliminate: it re-loads every frontier word from memory per arc
// and bounds-checks three runtime-length slot slices. Each specialization
// here fixes the (lane width, group size) pair at compile time, so the
// frontier group lives in scalar locals across the frontier vertex's arc
// loop and the target's interleaved reach+next record converts to one
// fixed-size array pointer — a single bounds check and a single cache-line
// run for the whole random access an arc performs. The new-lane words are
// computed into locals first and the record's next side is only touched
// when one of them is nonzero, keeping the common already-settled arc at
// one loaded line with no stores.
//
// Frontier recovery matches the generic loop decision for decision: a
// vertex joins the candidate queue when the union over its next slots goes
// zero → nonzero (the pre/post test the generic loop folds per arc is one
// OR chain here because the next words share the just-loaded record), the
// dense sweep recovers the frontier from the next side of every record,
// and the dense/sparse crossover scales the single-source vol ≥ n/8 rule
// by the group size since per-arc expansion and per-vertex sweep both
// scale by it. Mode choice never affects results: reach, depth sums and
// level structure stay bit-identical to the reference, which
// TestMSBFSSpecializedMatchesGeneric replays against every kernel.
//
// The specialized group sizes (64×4, 64×8, 128×4, 256×2) cover the
// planner's automatic fan-outs (autoFanOut, clamped to the distinct-source
// count) and the forced sizes BenchmarkPlannerRegret measures; other sizes
// run the generic loop.

func runLevelsMS64x4(b *MSBFS[ugraph.Vec64], off []int32) {
	arcs := b.arcs
	rn, cur, depthSum := b.rn, b.cur, b.depthSum
	curQ, nextQ := b.curQ, b.nextQ
	n := b.n
	depth := 0
	for len(curQ) > 0 {
		depth++
		vol := 0
		for _, ui := range curQ {
			vol += int(off[ui+1] - off[ui])
		}
		nextQ = nextQ[:0]
		if vol >= n*4/8 {
			for _, ui := range curQ {
				u := int(ui)
				f := (*[4]ugraph.Vec64)(cur[u*4:])
				f0, f1, f2, f3 := f[0][0], f[1][0], f[2][0], f[3][0]
				*f = [4]ugraph.Vec64{}
				for j := off[u]; j < off[u+1]; j++ {
					a := &arcs[j]
					v := int(a.to)
					m := a.mask[0]
					q := (*[8]ugraph.Vec64)(rn[v*8:])
					t0 := f0 & m &^ q[0][0]
					t1 := f1 & m &^ q[1][0]
					t2 := f2 & m &^ q[2][0]
					t3 := f3 & m &^ q[3][0]
					if t0|t1|t2|t3 == 0 {
						continue
					}
					q[4][0] |= t0
					q[5][0] |= t1
					q[6][0] |= t2
					q[7][0] |= t3
				}
			}
			for v := 0; v < n; v++ {
				q := (*[8]ugraph.Vec64)(rn[v*8:])
				n0, n1, n2, n3 := q[4][0], q[5][0], q[6][0], q[7][0]
				if n0|n1|n2|n3 == 0 {
					continue
				}
				settleMS64x4(q, cur, depthSum, v, depth, n0, n1, n2, n3)
				nextQ = append(nextQ, int32(v))
			}
		} else {
			for _, ui := range curQ {
				u := int(ui)
				f := (*[4]ugraph.Vec64)(cur[u*4:])
				f0, f1, f2, f3 := f[0][0], f[1][0], f[2][0], f[3][0]
				*f = [4]ugraph.Vec64{}
				for j := off[u]; j < off[u+1]; j++ {
					a := &arcs[j]
					v := int(a.to)
					m := a.mask[0]
					q := (*[8]ugraph.Vec64)(rn[v*8:])
					t0 := f0 & m &^ q[0][0]
					t1 := f1 & m &^ q[1][0]
					t2 := f2 & m &^ q[2][0]
					t3 := f3 & m &^ q[3][0]
					if t0|t1|t2|t3 == 0 {
						continue
					}
					pre := q[4][0] | q[5][0] | q[6][0] | q[7][0]
					q[4][0] |= t0
					q[5][0] |= t1
					q[6][0] |= t2
					q[7][0] |= t3
					if pre == 0 {
						nextQ = append(nextQ, int32(v))
					}
				}
			}
			for _, vi := range nextQ {
				v := int(vi)
				q := (*[8]ugraph.Vec64)(rn[v*8:])
				n0, n1, n2, n3 := q[4][0], q[5][0], q[6][0], q[7][0] // disjoint from reach: masked at insertion
				settleMS64x4(q, cur, depthSum, v, depth, n0, n1, n2, n3)
			}
		}
		curQ, nextQ = nextQ, curQ[:0]
	}
	b.curQ, b.nextQ = curQ[:0], nextQ[:0]
}

// settleMS64x4 folds one vertex's newly-reached group into the reach side
// of its record, the frontier for the next level and the per-slot depth
// sums — shared by the dense sweep and the sparse candidate pass of the
// 64×4 kernel.
func settleMS64x4(q *[8]ugraph.Vec64, cur []ugraph.Vec64, depthSum []int64, v, depth int, n0, n1, n2, n3 uint64) {
	q[0][0] |= n0
	q[1][0] |= n1
	q[2][0] |= n2
	q[3][0] |= n3
	q[4][0], q[5][0], q[6][0], q[7][0] = 0, 0, 0, 0
	d := (*[4]int64)(depthSum[v*4:])
	dd := int64(depth)
	d[0] += dd * int64(bits.OnesCount64(n0))
	d[1] += dd * int64(bits.OnesCount64(n1))
	d[2] += dd * int64(bits.OnesCount64(n2))
	d[3] += dd * int64(bits.OnesCount64(n3))
	c := (*[4]ugraph.Vec64)(cur[v*4:])
	c[0][0], c[1][0], c[2][0], c[3][0] = n0, n1, n2, n3
}

func runLevelsMS64x8(b *MSBFS[ugraph.Vec64], off []int32) {
	arcs := b.arcs
	rn, cur, depthSum := b.rn, b.cur, b.depthSum
	curQ, nextQ := b.curQ, b.nextQ
	n := b.n
	depth := 0
	for len(curQ) > 0 {
		depth++
		vol := 0
		for _, ui := range curQ {
			vol += int(off[ui+1] - off[ui])
		}
		nextQ = nextQ[:0]
		if vol >= n {
			for _, ui := range curQ {
				u := int(ui)
				f := (*[8]ugraph.Vec64)(cur[u*8:])
				f0, f1, f2, f3 := f[0][0], f[1][0], f[2][0], f[3][0]
				f4, f5, f6, f7 := f[4][0], f[5][0], f[6][0], f[7][0]
				*f = [8]ugraph.Vec64{}
				for j := off[u]; j < off[u+1]; j++ {
					a := &arcs[j]
					v := int(a.to)
					m := a.mask[0]
					q := (*[16]ugraph.Vec64)(rn[v*16:])
					t0 := f0 & m &^ q[0][0]
					t1 := f1 & m &^ q[1][0]
					t2 := f2 & m &^ q[2][0]
					t3 := f3 & m &^ q[3][0]
					t4 := f4 & m &^ q[4][0]
					t5 := f5 & m &^ q[5][0]
					t6 := f6 & m &^ q[6][0]
					t7 := f7 & m &^ q[7][0]
					if t0|t1|t2|t3|t4|t5|t6|t7 == 0 {
						continue
					}
					q[8][0] |= t0
					q[9][0] |= t1
					q[10][0] |= t2
					q[11][0] |= t3
					q[12][0] |= t4
					q[13][0] |= t5
					q[14][0] |= t6
					q[15][0] |= t7
				}
			}
			for v := 0; v < n; v++ {
				q := (*[16]ugraph.Vec64)(rn[v*16:])
				n0, n1, n2, n3 := q[8][0], q[9][0], q[10][0], q[11][0]
				n4, n5, n6, n7 := q[12][0], q[13][0], q[14][0], q[15][0]
				if n0|n1|n2|n3|n4|n5|n6|n7 == 0 {
					continue
				}
				settleMS64x8(q, cur, depthSum, v, depth, n0, n1, n2, n3, n4, n5, n6, n7)
				nextQ = append(nextQ, int32(v))
			}
		} else {
			for _, ui := range curQ {
				u := int(ui)
				f := (*[8]ugraph.Vec64)(cur[u*8:])
				f0, f1, f2, f3 := f[0][0], f[1][0], f[2][0], f[3][0]
				f4, f5, f6, f7 := f[4][0], f[5][0], f[6][0], f[7][0]
				*f = [8]ugraph.Vec64{}
				for j := off[u]; j < off[u+1]; j++ {
					a := &arcs[j]
					v := int(a.to)
					m := a.mask[0]
					q := (*[16]ugraph.Vec64)(rn[v*16:])
					t0 := f0 & m &^ q[0][0]
					t1 := f1 & m &^ q[1][0]
					t2 := f2 & m &^ q[2][0]
					t3 := f3 & m &^ q[3][0]
					t4 := f4 & m &^ q[4][0]
					t5 := f5 & m &^ q[5][0]
					t6 := f6 & m &^ q[6][0]
					t7 := f7 & m &^ q[7][0]
					if t0|t1|t2|t3|t4|t5|t6|t7 == 0 {
						continue
					}
					pre := q[8][0] | q[9][0] | q[10][0] | q[11][0] |
						q[12][0] | q[13][0] | q[14][0] | q[15][0]
					q[8][0] |= t0
					q[9][0] |= t1
					q[10][0] |= t2
					q[11][0] |= t3
					q[12][0] |= t4
					q[13][0] |= t5
					q[14][0] |= t6
					q[15][0] |= t7
					if pre == 0 {
						nextQ = append(nextQ, int32(v))
					}
				}
			}
			for _, vi := range nextQ {
				v := int(vi)
				q := (*[16]ugraph.Vec64)(rn[v*16:])
				n0, n1, n2, n3 := q[8][0], q[9][0], q[10][0], q[11][0] // disjoint from reach: masked at insertion
				n4, n5, n6, n7 := q[12][0], q[13][0], q[14][0], q[15][0]
				settleMS64x8(q, cur, depthSum, v, depth, n0, n1, n2, n3, n4, n5, n6, n7)
			}
		}
		curQ, nextQ = nextQ, curQ[:0]
	}
	b.curQ, b.nextQ = curQ[:0], nextQ[:0]
}

// settleMS64x8 is settleMS64x4 for the 64×8 kernel.
func settleMS64x8(q *[16]ugraph.Vec64, cur []ugraph.Vec64, depthSum []int64, v, depth int, n0, n1, n2, n3, n4, n5, n6, n7 uint64) {
	q[0][0] |= n0
	q[1][0] |= n1
	q[2][0] |= n2
	q[3][0] |= n3
	q[4][0] |= n4
	q[5][0] |= n5
	q[6][0] |= n6
	q[7][0] |= n7
	q[8] = ugraph.Vec64{}
	q[9] = ugraph.Vec64{}
	q[10] = ugraph.Vec64{}
	q[11] = ugraph.Vec64{}
	q[12] = ugraph.Vec64{}
	q[13] = ugraph.Vec64{}
	q[14] = ugraph.Vec64{}
	q[15] = ugraph.Vec64{}
	d := (*[8]int64)(depthSum[v*8:])
	dd := int64(depth)
	d[0] += dd * int64(bits.OnesCount64(n0))
	d[1] += dd * int64(bits.OnesCount64(n1))
	d[2] += dd * int64(bits.OnesCount64(n2))
	d[3] += dd * int64(bits.OnesCount64(n3))
	d[4] += dd * int64(bits.OnesCount64(n4))
	d[5] += dd * int64(bits.OnesCount64(n5))
	d[6] += dd * int64(bits.OnesCount64(n6))
	d[7] += dd * int64(bits.OnesCount64(n7))
	c := (*[8]ugraph.Vec64)(cur[v*8:])
	c[0][0], c[1][0], c[2][0], c[3][0] = n0, n1, n2, n3
	c[4][0], c[5][0], c[6][0], c[7][0] = n4, n5, n6, n7
}

func runLevelsMS128x4(b *MSBFS[ugraph.Vec128], off []int32) {
	arcs := b.arcs
	rn, cur, depthSum := b.rn, b.cur, b.depthSum
	curQ, nextQ := b.curQ, b.nextQ
	n := b.n
	depth := 0
	for len(curQ) > 0 {
		depth++
		vol := 0
		for _, ui := range curQ {
			vol += int(off[ui+1] - off[ui])
		}
		nextQ = nextQ[:0]
		if vol >= n*4/8 {
			for _, ui := range curQ {
				u := int(ui)
				f := (*[4]ugraph.Vec128)(cur[u*4:])
				f00, f01, f10, f11 := f[0][0], f[0][1], f[1][0], f[1][1]
				f20, f21, f30, f31 := f[2][0], f[2][1], f[3][0], f[3][1]
				*f = [4]ugraph.Vec128{}
				for j := off[u]; j < off[u+1]; j++ {
					a := &arcs[j]
					v := int(a.to)
					m0, m1 := a.mask[0], a.mask[1]
					q := (*[8]ugraph.Vec128)(rn[v*8:])
					t00 := f00 & m0 &^ q[0][0]
					t01 := f01 & m1 &^ q[0][1]
					t10 := f10 & m0 &^ q[1][0]
					t11 := f11 & m1 &^ q[1][1]
					t20 := f20 & m0 &^ q[2][0]
					t21 := f21 & m1 &^ q[2][1]
					t30 := f30 & m0 &^ q[3][0]
					t31 := f31 & m1 &^ q[3][1]
					if t00|t01|t10|t11|t20|t21|t30|t31 == 0 {
						continue
					}
					q[4][0] |= t00
					q[4][1] |= t01
					q[5][0] |= t10
					q[5][1] |= t11
					q[6][0] |= t20
					q[6][1] |= t21
					q[7][0] |= t30
					q[7][1] |= t31
				}
			}
			for v := 0; v < n; v++ {
				q := (*[8]ugraph.Vec128)(rn[v*8:])
				n00, n01, n10, n11 := q[4][0], q[4][1], q[5][0], q[5][1]
				n20, n21, n30, n31 := q[6][0], q[6][1], q[7][0], q[7][1]
				if n00|n01|n10|n11|n20|n21|n30|n31 == 0 {
					continue
				}
				settleMS128x4(q, cur, depthSum, v, depth, n00, n01, n10, n11, n20, n21, n30, n31)
				nextQ = append(nextQ, int32(v))
			}
		} else {
			for _, ui := range curQ {
				u := int(ui)
				f := (*[4]ugraph.Vec128)(cur[u*4:])
				f00, f01, f10, f11 := f[0][0], f[0][1], f[1][0], f[1][1]
				f20, f21, f30, f31 := f[2][0], f[2][1], f[3][0], f[3][1]
				*f = [4]ugraph.Vec128{}
				for j := off[u]; j < off[u+1]; j++ {
					a := &arcs[j]
					v := int(a.to)
					m0, m1 := a.mask[0], a.mask[1]
					q := (*[8]ugraph.Vec128)(rn[v*8:])
					t00 := f00 & m0 &^ q[0][0]
					t01 := f01 & m1 &^ q[0][1]
					t10 := f10 & m0 &^ q[1][0]
					t11 := f11 & m1 &^ q[1][1]
					t20 := f20 & m0 &^ q[2][0]
					t21 := f21 & m1 &^ q[2][1]
					t30 := f30 & m0 &^ q[3][0]
					t31 := f31 & m1 &^ q[3][1]
					if t00|t01|t10|t11|t20|t21|t30|t31 == 0 {
						continue
					}
					pre := q[4][0] | q[4][1] | q[5][0] | q[5][1] |
						q[6][0] | q[6][1] | q[7][0] | q[7][1]
					q[4][0] |= t00
					q[4][1] |= t01
					q[5][0] |= t10
					q[5][1] |= t11
					q[6][0] |= t20
					q[6][1] |= t21
					q[7][0] |= t30
					q[7][1] |= t31
					if pre == 0 {
						nextQ = append(nextQ, int32(v))
					}
				}
			}
			for _, vi := range nextQ {
				v := int(vi)
				q := (*[8]ugraph.Vec128)(rn[v*8:])
				n00, n01, n10, n11 := q[4][0], q[4][1], q[5][0], q[5][1] // disjoint from reach
				n20, n21, n30, n31 := q[6][0], q[6][1], q[7][0], q[7][1]
				settleMS128x4(q, cur, depthSum, v, depth, n00, n01, n10, n11, n20, n21, n30, n31)
			}
		}
		curQ, nextQ = nextQ, curQ[:0]
	}
	b.curQ, b.nextQ = curQ[:0], nextQ[:0]
}

// settleMS128x4 is settleMS64x4 for the 128×4 kernel: two words per slot.
func settleMS128x4(q *[8]ugraph.Vec128, cur []ugraph.Vec128, depthSum []int64, v, depth int, n00, n01, n10, n11, n20, n21, n30, n31 uint64) {
	q[0][0] |= n00
	q[0][1] |= n01
	q[1][0] |= n10
	q[1][1] |= n11
	q[2][0] |= n20
	q[2][1] |= n21
	q[3][0] |= n30
	q[3][1] |= n31
	q[4] = ugraph.Vec128{}
	q[5] = ugraph.Vec128{}
	q[6] = ugraph.Vec128{}
	q[7] = ugraph.Vec128{}
	d := (*[4]int64)(depthSum[v*4:])
	dd := int64(depth)
	d[0] += dd * int64(bits.OnesCount64(n00)+bits.OnesCount64(n01))
	d[1] += dd * int64(bits.OnesCount64(n10)+bits.OnesCount64(n11))
	d[2] += dd * int64(bits.OnesCount64(n20)+bits.OnesCount64(n21))
	d[3] += dd * int64(bits.OnesCount64(n30)+bits.OnesCount64(n31))
	c := (*[4]ugraph.Vec128)(cur[v*4:])
	c[0] = ugraph.Vec128{n00, n01}
	c[1] = ugraph.Vec128{n10, n11}
	c[2] = ugraph.Vec128{n20, n21}
	c[3] = ugraph.Vec128{n30, n31}
}

func runLevelsMS256x2(b *MSBFS[ugraph.Vec256], off []int32) {
	arcs := b.arcs
	rn, cur, depthSum := b.rn, b.cur, b.depthSum
	curQ, nextQ := b.curQ, b.nextQ
	n := b.n
	depth := 0
	for len(curQ) > 0 {
		depth++
		vol := 0
		for _, ui := range curQ {
			vol += int(off[ui+1] - off[ui])
		}
		nextQ = nextQ[:0]
		if vol >= n*2/8 {
			for _, ui := range curQ {
				u := int(ui)
				f := (*[2]ugraph.Vec256)(cur[u*2:])
				f00, f01, f02, f03 := f[0][0], f[0][1], f[0][2], f[0][3]
				f10, f11, f12, f13 := f[1][0], f[1][1], f[1][2], f[1][3]
				*f = [2]ugraph.Vec256{}
				for j := off[u]; j < off[u+1]; j++ {
					a := &arcs[j]
					v := int(a.to)
					m0, m1, m2, m3 := a.mask[0], a.mask[1], a.mask[2], a.mask[3]
					q := (*[4]ugraph.Vec256)(rn[v*4:])
					t00 := f00 & m0 &^ q[0][0]
					t01 := f01 & m1 &^ q[0][1]
					t02 := f02 & m2 &^ q[0][2]
					t03 := f03 & m3 &^ q[0][3]
					t10 := f10 & m0 &^ q[1][0]
					t11 := f11 & m1 &^ q[1][1]
					t12 := f12 & m2 &^ q[1][2]
					t13 := f13 & m3 &^ q[1][3]
					if t00|t01|t02|t03|t10|t11|t12|t13 == 0 {
						continue
					}
					q[2][0] |= t00
					q[2][1] |= t01
					q[2][2] |= t02
					q[2][3] |= t03
					q[3][0] |= t10
					q[3][1] |= t11
					q[3][2] |= t12
					q[3][3] |= t13
				}
			}
			for v := 0; v < n; v++ {
				q := (*[4]ugraph.Vec256)(rn[v*4:])
				n00, n01, n02, n03 := q[2][0], q[2][1], q[2][2], q[2][3]
				n10, n11, n12, n13 := q[3][0], q[3][1], q[3][2], q[3][3]
				if n00|n01|n02|n03|n10|n11|n12|n13 == 0 {
					continue
				}
				settleMS256x2(q, cur, depthSum, v, depth, n00, n01, n02, n03, n10, n11, n12, n13)
				nextQ = append(nextQ, int32(v))
			}
		} else {
			for _, ui := range curQ {
				u := int(ui)
				f := (*[2]ugraph.Vec256)(cur[u*2:])
				f00, f01, f02, f03 := f[0][0], f[0][1], f[0][2], f[0][3]
				f10, f11, f12, f13 := f[1][0], f[1][1], f[1][2], f[1][3]
				*f = [2]ugraph.Vec256{}
				for j := off[u]; j < off[u+1]; j++ {
					a := &arcs[j]
					v := int(a.to)
					m0, m1, m2, m3 := a.mask[0], a.mask[1], a.mask[2], a.mask[3]
					q := (*[4]ugraph.Vec256)(rn[v*4:])
					t00 := f00 & m0 &^ q[0][0]
					t01 := f01 & m1 &^ q[0][1]
					t02 := f02 & m2 &^ q[0][2]
					t03 := f03 & m3 &^ q[0][3]
					t10 := f10 & m0 &^ q[1][0]
					t11 := f11 & m1 &^ q[1][1]
					t12 := f12 & m2 &^ q[1][2]
					t13 := f13 & m3 &^ q[1][3]
					if t00|t01|t02|t03|t10|t11|t12|t13 == 0 {
						continue
					}
					pre := q[2][0] | q[2][1] | q[2][2] | q[2][3] |
						q[3][0] | q[3][1] | q[3][2] | q[3][3]
					q[2][0] |= t00
					q[2][1] |= t01
					q[2][2] |= t02
					q[2][3] |= t03
					q[3][0] |= t10
					q[3][1] |= t11
					q[3][2] |= t12
					q[3][3] |= t13
					if pre == 0 {
						nextQ = append(nextQ, int32(v))
					}
				}
			}
			for _, vi := range nextQ {
				v := int(vi)
				q := (*[4]ugraph.Vec256)(rn[v*4:])
				n00, n01, n02, n03 := q[2][0], q[2][1], q[2][2], q[2][3] // disjoint from reach
				n10, n11, n12, n13 := q[3][0], q[3][1], q[3][2], q[3][3]
				settleMS256x2(q, cur, depthSum, v, depth, n00, n01, n02, n03, n10, n11, n12, n13)
			}
		}
		curQ, nextQ = nextQ, curQ[:0]
	}
	b.curQ, b.nextQ = curQ[:0], nextQ[:0]
}

// settleMS256x2 is settleMS64x4 for the 256×2 kernel: four words per slot.
func settleMS256x2(q *[4]ugraph.Vec256, cur []ugraph.Vec256, depthSum []int64, v, depth int, n00, n01, n02, n03, n10, n11, n12, n13 uint64) {
	q[0][0] |= n00
	q[0][1] |= n01
	q[0][2] |= n02
	q[0][3] |= n03
	q[1][0] |= n10
	q[1][1] |= n11
	q[1][2] |= n12
	q[1][3] |= n13
	q[2] = ugraph.Vec256{}
	q[3] = ugraph.Vec256{}
	d := (*[2]int64)(depthSum[v*2:])
	dd := int64(depth)
	d[0] += dd * int64(bits.OnesCount64(n00)+bits.OnesCount64(n01)+bits.OnesCount64(n02)+bits.OnesCount64(n03))
	d[1] += dd * int64(bits.OnesCount64(n10)+bits.OnesCount64(n11)+bits.OnesCount64(n12)+bits.OnesCount64(n13))
	c := (*[2]ugraph.Vec256)(cur[v*2:])
	c[0] = ugraph.Vec256{n00, n01, n02, n03}
	c[1] = ugraph.Vec256{n10, n11, n12, n13}
}
