package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"ugs/internal/serve"
)

// result is the outcome of one request. Times are offsets from the start of
// the measured window.
type result struct {
	Req *request
	// Due is when the client issued the request; latency is measured from
	// it.
	Due        time.Duration
	Sent, Done time.Duration
	Status     int
	Err        error
	Body       []byte
	// Wrong is set when the answer check rejects the response.
	Wrong string
	// Slice is the window slice, and so the server, the request went to.
	Slice int
}

func (r *result) ok() bool     { return r.Err == nil && r.Status/100 == 2 }
func (r *result) failed() bool { return !r.ok() || r.Wrong != "" }

func (r *result) latencyMS() float64 { return float64(r.Done-r.Due) / float64(time.Millisecond) }

// loadgen sends a workload's requests from one process over at most conns
// connections.
type loadgen struct {
	base  string
	hc    *http.Client
	conns int
	start time.Time
}

func newLoadgen(base string, conns int) *loadgen {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loadgen{base: base, hc: &http.Client{Transport: tr}, conns: conns}
}

func (l *loadgen) close() { l.hc.CloseIdleConnections() }

func (l *loadgen) since() time.Duration { return time.Since(l.start) }

// exec sends r, recording its timings and response into res.
func (l *loadgen) exec(ctx context.Context, r *request, res *result) {
	res.Req = r
	hreq, err := http.NewRequestWithContext(ctx, r.method(), l.base+r.path(), bytes.NewReader(r.body()))
	if err != nil {
		res.Err = err
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	res.Sent = l.since()
	resp, err := l.hc.Do(hreq)
	if err == nil {
		res.Status = resp.StatusCode
		res.Body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	res.Done = l.since()
	res.Err = err
}

// closedLoop runs one client per source, each running the cycles its
// source returns back to back until the window has passed and finishing the
// cycle in progress. The results are in the order they were sent.
func (l *loadgen) closedLoop(ctx context.Context, sources []func() ([]request, error), window time.Duration) ([]result, error) {
	l.start = time.Now()
	var (
		mu    sync.Mutex // guards out and first
		out   []result
		first error
		wg    sync.WaitGroup
	)
	for _, next := range sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []result
			var err error
			for l.since() < window && ctx.Err() == nil {
				var reqs []request
				if reqs, err = next(); err != nil {
					break
				}
				mine = append(mine, l.cycle(ctx, reqs)...)
			}
			mu.Lock()
			out = append(out, mine...)
			if first == nil {
				first = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Sent < out[j].Sent })
	return out, nil
}

// cycle sends one cycle's requests in order. A sparsify cycle's queries on
// the result go to the ID its sparsify response names.
func (l *loadgen) cycle(ctx context.Context, reqs []request) []result {
	var out []result
	var resultID string
	for k := range reqs {
		r := &reqs[k]
		res := result{Req: r, Due: l.since()}
		if r.OnResult {
			if resultID == "" {
				res.Sent, res.Done = res.Due, res.Due
				res.Err = errors.New("sparsify failed; no result ID to query")
				out = append(out, res)
				continue
			}
			r.Query.Graph = resultID
		}
		l.exec(ctx, r, &res)
		if r.Op == opSparsify && res.ok() {
			var sp serve.SparsifyResponse
			if err := json.Unmarshal(res.Body, &sp); err != nil {
				res.Err = fmt.Errorf("decoding sparsify response: %w", err)
			}
			resultID = sp.ID
		}
		out = append(out, res)
	}
	return out
}
