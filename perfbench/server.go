package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ugs/internal/gen"
	"ugs/internal/serve"
)

// genCorpus writes every graph of w into dir as <name>.ugsb.
func genCorpus(w workload, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, g := range w.Graphs {
		if _, _, err := gen.StreamSocial(g.Cfg, filepath.Join(dir, g.Name+".ugsb")); err != nil {
			return fmt.Errorf("generating %s: %w", g.Name, err)
		}
	}
	return nil
}

// storeBudget returns the store budget in bytes for w's corpus in dir: its
// fixed Budget, or the corpus total less half the smallest graph, so that
// every graph fits except the largest and the smallest together.
func storeBudget(w workload, dir string) (int64, error) {
	if w.Budget != 0 {
		return w.Budget, nil
	}
	var total, smallest int64
	for _, g := range w.Graphs {
		st, err := os.Stat(filepath.Join(dir, g.Name+".ugsb"))
		if err != nil {
			return 0, err
		}
		total += st.Size()
		if smallest == 0 || st.Size() < smallest {
			smallest = st.Size()
		}
	}
	return total - smallest/2, nil
}

// child is a ugs-serve process started by the benchmark.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	exited chan struct{}
}

// startServer boots the ugs-serve binary on a loopback port with its default
// flags plus -graphs and -store-budget, and waits until /healthz answers.
// tmp becomes the child's TMPDIR, where the store keeps its sidecars.
func startServer(bin, graphs string, budget int64, tmp string) (*child, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-graphs", graphs, "-store-budget", strconv.FormatInt(budget, 10))
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Read stdout to EOF so the child never blocks on a full pipe.
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, url, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr <- strings.TrimSpace(url)
			}
		}
		_ = cmd.Wait()
		close(c.exited)
	}()
	select {
	case c.base = <-addr:
	case <-c.exited:
		return nil, errors.New("ugs-serve exited during start-up")
	case <-time.After(60 * time.Second):
		c.stop()
		return nil, errors.New("ugs-serve did not report its address within 60s")
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("ugs-serve /healthz not ready within 60s: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop shuts the child down gracefully and waits for it to exit, killing it
// if the drain takes longer than 20s.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(20 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
}

// peakRSSMB reads VmHWM, the child's peak resident set, from /proc.
func (c *child) peakRSSMB() (float64, error) {
	f, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(f), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (c *child) stats(ctx context.Context) (*serve.StatsResponse, error) {
	var st serve.StatsResponse
	if err := getJSON(ctx, c.base+"/v1/stats", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
