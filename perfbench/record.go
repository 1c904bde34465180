package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies the host and toolchain a record was measured on;
// records are only compared when their fingerprints are equal.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// commit names the checked-out commit, or "unknown" when the working
// directory is not the root of a git work tree.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full context and outcome of one run.
type record struct {
	Schema      string             `json:"schema"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Commit      string             `json:"commit"`
	Workload    workload           `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     int                `json:"seconds"`
	Trace       bool               `json:"trace"`
	Correct     bool               `json:"correct"`
	Ops         map[string]opCount `json:"ops"`
	Metrics     map[string]metric  `json:"metrics"`
}

type opCount struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

const recordSchema = "perfbench/1"

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Schema == recordSchema {
			recs = append(recs, r)
		}
	}
	return recs, sc.Err()
}

// compareMain implements "compare OLD NEW": per workload and metric, the
// median of each side and the change between them, over records whose
// fingerprint and workload parameters match. Records that do not match are
// counted and left out.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.jsonl NEW.jsonl")
		return 2
	}
	var sides [2][]record
	for i, p := range args {
		recs, err := readRecords(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		sides[i] = recs
	}
	if len(sides[0]) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no records in", args[0])
		return 1
	}
	ref := sides[0][0].Fingerprint
	type key struct {
		workload, params string
		trace            bool
	}
	groups := map[key][2]map[string][]float64{}
	units := map[string]string{}
	skipped := 0
	for s, recs := range sides {
		for _, r := range recs {
			if r.Fingerprint != ref {
				skipped++
				continue
			}
			params, _ := json.Marshal(r.Workload)
			k := key{r.Workload.Name, string(params), r.Trace}
			g := groups[k]
			if g[s] == nil {
				g[s] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				g[s][name] = append(g[s][name], m.Value)
				units[name] = m.Unit
			}
			groups[k] = g
		}
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].workload < keys[j].workload })
	fmt.Fprintf(out, "fingerprint: %s, %d cpus, GOMAXPROCS %d, %s; %d records with another fingerprint skipped\n",
		ref.CPU, ref.NProc, ref.GOMAXPROCS, ref.Go, skipped)
	for _, k := range keys {
		g := groups[k]
		names := make([]string, 0, len(g[0]))
		for name := range g[0] {
			if g[1][name] != nil {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			a, b := median(g[0][name]), median(g[1][name])
			fmt.Fprintf(out, "%-9s %-30s %12.4g -> %12.4g %-6s %+7.1f%%  (n=%d/%d)\n",
				k.workload, name, a, b, units[name], 100*(b-a)/a, len(g[0][name]), len(g[1][name]))
		}
	}
	return 0
}
