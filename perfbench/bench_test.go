package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"ugs"
	"ugs/internal/serve"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 95); err != nil || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190 (ten samples beyond it)", v, err)
	}
	if _, err := percentile(xs[:199], 95); err == nil {
		t.Fatal("p95 of 199 samples leaves fewer than ten beyond it, yet was reported")
	}
	if v, err := percentile(xs[:20], 50); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestLevel(c.n); got != c.want {
			t.Errorf("highestLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// streamBytes renders requests the way the load generator sends them.
func streamBytes(reqs []request) []byte {
	var b bytes.Buffer
	for _, r := range reqs {
		b.WriteString(r.method() + " " + r.path() + " ")
		b.Write(r.body())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func corpus(t *testing.T, w workload) map[string]*ugs.Graph {
	t.Helper()
	dir := t.TempDir()
	if err := genCorpus(w, dir); err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*ugs.Graph{}
	for _, g := range w.Graphs {
		mg, err := ugs.OpenMappedGraph(filepath.Join(dir, g.Name+".ugsb"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mg.Close() })
		graphs[g.Name] = mg
	}
	return graphs
}

func TestSeedGivesSameStream(t *testing.T) {
	read := workloads["read"]
	a := streamBytes(readQueries(read, 7, 200))
	if b := streamBytes(readQueries(read, 7, 200)); !bytes.Equal(a, b) {
		t.Fatal("read: seed 7 gave two different streams")
	}
	if b := streamBytes(readQueries(read, 8, 200)); bytes.Equal(a, b) {
		t.Fatal("read: seeds 7 and 8 gave the same stream")
	}

	write := workloads["write"]
	base := corpus(t, write)
	cycles := func(seed int64) []byte {
		next := writeCycles(write, seed, base, write.Mix.Small)
		var reqs []request
		for i := 0; i < 6; i++ {
			c, err := next(i)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, c...)
		}
		return streamBytes(reqs)
	}
	if a, b := cycles(7), cycles(7); !bytes.Equal(a, b) {
		t.Fatal("write: seed 7 gave two different streams")
	}
	if a, b := cycles(7), cycles(8); bytes.Equal(a, b) {
		t.Fatal("write: seeds 7 and 8 gave the same stream")
	}

	sp := workloads["sparsify"]
	for i := 0; i < 8; i++ {
		if a, b := streamBytes(sparsifyCycle(sp, 7, i)), streamBytes(sparsifyCycle(sp, 7, i)); !bytes.Equal(a, b) {
			t.Fatalf("sparsify: cycle %d differs between two draws of seed 7", i)
		}
	}
}

// readQueries draws the first n queries of read slice 0's stream, with a
// rare-graph query every 50th.
func readQueries(w workload, seed int64, n int) []request {
	qg := readStream(w, seed, 0)
	reqs := make([]request, n)
	for i := range reqs {
		var q *serve.QueryRequest
		if i%50 == 49 {
			q = qg.rareQuery()
		} else {
			q = qg.next("")
		}
		reqs[i] = request{Op: opQuery, Graph: q.Graph, Query: q}
	}
	return reqs
}

// TestRepeatShare checks that a read stream repeats exactly one small-graph
// request in RepeatEvery and sends every other one once.
func TestRepeatShare(t *testing.T) {
	read := workloads["read"]
	for seed := int64(1); seed <= 3; seed++ {
		seen := map[string]bool{}
		small, repeats := 0, 0
		for _, r := range readQueries(read, seed, 400) {
			if slices.Contains(read.Mix.Rare, r.Graph) {
				continue
			}
			q := *r.Query
			q.Kind = "" // one pass answers both kinds
			key := string(streamBytes([]request{{Op: opQuery, Query: &q}}))
			small++
			if seen[key] {
				repeats++
			}
			seen[key] = true
		}
		if want := small / read.Mix.RepeatEvery; repeats != want {
			t.Fatalf("seed %d: %d repeats among %d requests, want %d", seed, repeats, small, want)
		}
	}
}

// TestCheckCatchesPerturbation serves queries from an in-process server,
// confirms the answer check accepts them, and confirms it rejects each
// answer once one value is moved by one ulp.
func TestCheckCatchesPerturbation(t *testing.T) {
	w := workload{Name: "check", Graphs: []graphSpec{sample}, Budget: 1 << 30}
	dir := t.TempDir()
	if err := genCorpus(w, dir); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := serve.New(ctx, serve.Config{GraphDir: dir, ConvertDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	g, err := ugs.OpenMappedGraph(filepath.Join(dir, sample.Name+".ugsb"))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	pairs := [][2]int{{0, 5}, {0, 77}, {1, 300}, {2, 599}}
	for _, q := range []*serve.QueryRequest{
		{Graph: sample.Name, Kind: "reliability", Pairs: pairs, Samples: 64, Seed: 3},
		{Graph: sample.Name, Kind: "distance", Pairs: pairs, Samples: 512, Seed: 4},
		{Graph: sample.Name, Kind: "reliability", Pairs: pairs, Confidence: &serve.Confidence{Eps: adaptiveEps}, Seed: 5},
	} {
		r := &request{Op: opQuery, Graph: q.Graph, Query: q}
		rec := serveInProcess(srv, r)
		if rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", q.Kind, rec.Code, rec.Body)
		}
		want, samples, err := expected(ctx, g, q)
		if err != nil {
			t.Fatal(err)
		}
		if wrong := compareAnswer(rec.Body.Bytes(), want, samples); wrong != "" {
			t.Fatalf("%s: the server's own answer was rejected: %s", q.Kind, wrong)
		}
		var resp serve.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		for i, v := range resp.Values {
			if v == nil {
				continue
			}
			*v = math.Nextafter(*v, math.Inf(1))
			body, _ := json.Marshal(resp)
			if compareAnswer(body, want, samples) == "" {
				t.Fatalf("%s: value %d moved by one ulp passed the check", q.Kind, i)
			}
			break
		}
	}
}

func TestCheckWritesCatchesWrongVersion(t *testing.T) {
	write := workloads["write"]
	base := corpus(t, write)
	reqs, err := writeCycles(write, 1, base, write.Mix.Small)(0)
	if err != nil {
		t.Fatal(err)
	}
	var res []result
	for i := range reqs {
		r := &reqs[i]
		if r.Op != opPatch {
			continue
		}
		version := r.Gen
		if len(res) == 1 {
			version++ // the second batch claims to skip a generation
		}
		body, _ := json.Marshal(serve.PatchResponse{Graph: r.Graph, Version: version, Applied: len(r.Edits)})
		res = append(res, result{Req: r, Status: 200, Body: body})
	}
	if _, err := checkWrites(context.Background(), res, base); err != nil {
		t.Fatal(err)
	}
	if res[0].Wrong != "" || res[1].Wrong == "" {
		t.Fatalf("verdicts %q, %q; want the second batch alone rejected", res[0].Wrong, res[1].Wrong)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 10},
		{ID: 1, Parent: 0, Start: 1, End: 4},
		{ID: 2, Parent: 0, Start: 3, End: 6}, // overlaps span 1
		{ID: 3, Parent: 0, Start: 8, End: 9},
		{ID: 4, Parent: -1, Start: 20, End: 30},
		{ID: 5, Parent: 4, Start: 22, End: 31}, // ends after its parent
	}
	self := selfTimes(spans)
	if self[0] != 4 || self[1] != 3 || self[3] != 1 {
		t.Fatalf("self times %v, want 4 for the parent (children cover 6 of 10)", self)
	}
	if self[4] != 2 {
		t.Fatalf("self time %v, want 2: a child is clipped to its parent", self[4])
	}
}

func TestZipfCards(t *testing.T) {
	cards := zipfCards(numTemplates, 48)
	counts := make([]int, numTemplates)
	for _, c := range cards {
		counts[c]++
	}
	for r := 1; r < numTemplates; r++ {
		if counts[r] < 1 || counts[r] > counts[r-1] {
			t.Fatalf("rank counts %v are not non-increasing with every rank present", counts)
		}
	}
}
