package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"ugs"
	"ugs/internal/core"
	"ugs/internal/serve"
)

// serverMaxSamples is ugs-serve's default -max-samples: the cap it puts on
// adaptive budgets, which the recomputation must reproduce.
const serverMaxSamples = 20000

// maxChecked bounds how many query responses a run recomputes.
const maxChecked = 16

// expected recomputes q on g with the library estimator and the options the
// server derives from the request.
func expected(ctx context.Context, g *ugs.Graph, q *serve.QueryRequest) ([]*float64, int, error) {
	opts, pairs := queryOptions(q)
	sp, rl, info, err := ugs.ShortestDistanceAndReliabilityRun(ctx, g, pairs, opts)
	if err != nil {
		return nil, 0, err
	}
	return answerValues(q.Kind, sp, rl), info.Samples, nil
}

// compareAnswer returns "" when the response body carries exactly the
// expected values, bit for bit, and sample count; otherwise what differs.
func compareAnswer(body []byte, want []*float64, samples int) string {
	var got serve.QueryResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return "undecodable response: " + err.Error()
	}
	if got.Samples != samples {
		return fmt.Sprintf("samples %d, library drew %d", got.Samples, samples)
	}
	if len(got.Values) != len(want) {
		return fmt.Sprintf("%d values, want %d", len(got.Values), len(want))
	}
	for i := range want {
		g, w := got.Values[i], want[i]
		switch {
		case g == nil && w == nil:
		case g == nil || w == nil:
			return fmt.Sprintf("value %d: null mismatch", i)
		case math.Float64bits(*g) != math.Float64bits(*w):
			return fmt.Sprintf("value %d: %v, library gives %v", i, *g, *w)
		}
	}
	return ""
}

// sampleQueries returns up to maxChecked successful query results, spread
// evenly over the stream.
func sampleQueries(res []result) []*result {
	var ok []*result
	for i := range res {
		if r := &res[i]; r.Req.Op == opQuery && r.ok() {
			ok = append(ok, r)
		}
	}
	step := max(1, (len(ok)+maxChecked-1)/maxChecked)
	var out []*result
	for i := 0; i < len(ok); i += step {
		out = append(out, ok[i])
	}
	return out
}

// checkReads recomputes sampled responses of an unpatched corpus.
func checkReads(ctx context.Context, res []result, graphs map[string]*ugs.Graph) (int, error) {
	checked := 0
	for _, r := range sampleQueries(res) {
		want, samples, err := expected(ctx, graphs[r.Req.Graph], r.Req.Query)
		if err != nil {
			return checked, err
		}
		r.Wrong = compareAnswer(r.Body, want, samples)
		checked++
	}
	return checked, nil
}

// checkWrites verifies that every patch answered the generation it
// creates, so each graph's versions rise by one per batch, and recomputes
// sampled queries against a replica at the generation they were sent at.
// Each slice's server starts the graphs afresh.
func checkWrites(ctx context.Context, res []result, base map[string]*ugs.Graph) (int, error) {
	type key struct {
		slice int
		graph string
	}
	checkAt := map[*result]bool{}
	for _, r := range sampleQueries(res) {
		checkAt[r] = true
	}
	replicas := map[key]*ugs.Graph{}
	checked := 0
	for i := range res {
		r := &res[i]
		k := key{r.Slice, r.Req.Graph}
		g, ok := replicas[k]
		if !ok {
			g = base[r.Req.Graph]
		}
		switch {
		case r.Req.Op == opPatch:
			next, err := ugs.ApplyEdits(g, r.Req.Edits)
			if err != nil {
				return checked, fmt.Errorf("replaying batch %d of %s: %w", r.Req.Gen, r.Req.Graph, err)
			}
			replicas[k] = next.Graph
			if !r.ok() {
				continue
			}
			var pr serve.PatchResponse
			if err := json.Unmarshal(r.Body, &pr); err != nil {
				r.Wrong = "undecodable patch response"
			} else if pr.Version != r.Req.Gen || pr.Applied != len(r.Req.Edits) {
				r.Wrong = fmt.Sprintf("patch answered version %d applied %d, want version %d applied %d",
					pr.Version, pr.Applied, r.Req.Gen, len(r.Req.Edits))
			}
		case checkAt[r]:
			want, samples, err := expected(ctx, g, r.Req.Query)
			if err != nil {
				return checked, err
			}
			r.Wrong = compareAnswer(r.Body, want, samples)
			checked++
		}
	}
	return checked, nil
}

// checkSparsify verifies every sparsify response's edge budget and
// recomputes the queries of sampled cycles: those on the original against
// the corpus graph, those on the result against the library's own
// sparsification with the same method, alpha and seed.
func checkSparsify(ctx context.Context, res []result, graphs map[string]*ugs.Graph) (int, error) {
	for i := range res {
		r := &res[i]
		if r.Req.Op != opSparsify || !r.ok() {
			continue
		}
		var sp serve.SparsifyResponse
		if err := json.Unmarshal(r.Body, &sp); err != nil {
			r.Wrong = "undecodable sparsify response"
			continue
		}
		want := core.TargetEdges(graphs[r.Req.Graph], r.Req.Sparsify.Alpha)
		if sp.Graph.Edges != want || sp.Cached {
			r.Wrong = fmt.Sprintf("sparsify kept %d edges (cached %v), want %d fresh", sp.Graph.Edges, sp.Cached, want)
		}
	}
	cycles := map[int]bool{}
	for _, r := range sampleQueries(res) {
		cycles[r.Req.Cycle] = true
	}
	sparsified := map[int]*ugs.Graph{}
	checked := 0
	for i := range res {
		r := &res[i]
		switch {
		case r.Req.Op == opSparsify && cycles[r.Req.Cycle]:
			sp, err := r.Req.Sparsify.Spec.Sparsifier()
			if err != nil {
				return checked, err
			}
			out, err := sp.Sparsify(ctx, graphs[r.Req.Graph], r.Req.Sparsify.Alpha)
			if err != nil {
				return checked, err
			}
			sparsified[r.Req.Cycle] = out.Graph
		case r.Req.Op == opQuery && r.ok() && cycles[r.Req.Cycle]:
			g := graphs[r.Req.Graph]
			if r.Req.OnResult {
				g = sparsified[r.Req.Cycle]
			}
			want, samples, err := expected(ctx, g, r.Req.Query)
			if err != nil {
				return checked, err
			}
			r.Wrong = compareAnswer(r.Body, want, samples)
			checked++
		}
	}
	return checked, nil
}
