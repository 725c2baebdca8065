package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot finds the checkout root: the nearest ancestor of the working
// directory that holds go.mod and cmd/aqserver. The harness runs from
// bench/ under `go run -C bench`, from bench/aqbench under `go test`.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "aqserver", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("aqbench: no checkout root (go.mod + cmd/aqserver) above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles ./cmd/aqserver into the checkout's .bench_build
// directory. The go tool's own cache makes a repeat build a no-op link
// check, so every run may call it.
func buildServer(ctx context.Context, root string) (string, error) {
	out := filepath.Join(root, ".bench_build", "aqserver")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/aqserver")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/aqserver: %v\n%s", err, b)
	}
	return out, nil
}

// child is one running aqserver process.
type child struct {
	cmd     *exec.Cmd
	logPath string
	exited  chan struct{} // closed once Wait returned
	waitErr error
	httpURL string
	ingest  string
	client  *http.Client
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches aqserver on two loopback ports the harness picked
// free, with the four compiled-in demo queries idling at 1 tuple/s, and
// waits for /readyz. A bind race on the picked ports is retried.
func startServer(ctx context.Context, ev env, durable bool) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		c, err := startServerOnce(ctx, ev.bin, ev.runDir, ev.cpus, durable)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

func startServerOnce(ctx context.Context, bin, runDir string, cpus cpuSplit, durable bool) (*child, error) {
	httpPort, err := freePort()
	if err != nil {
		return nil, err
	}
	ingestPort, err := freePort()
	if err != nil {
		return nil, err
	}
	c := &child{
		httpURL: fmt.Sprintf("http://127.0.0.1:%d", httpPort),
		ingest:  fmt.Sprintf("127.0.0.1:%d", ingestPort),
		logPath: filepath.Join(runDir, "aqserver.log"),
		exited:  make(chan struct{}),
		client:  &http.Client{Timeout: 10 * time.Second},
	}
	args := []string{"-api", "-obs", "-rate", "1", "-n", "256",
		"-addr", fmt.Sprintf("127.0.0.1:%d", httpPort), "-listen", c.ingest}
	if durable {
		dir, err := os.MkdirTemp(runDir, "durable-")
		if err != nil {
			return nil, err
		}
		args = append(args, "-durable-dir", dir, "-snapshot-interval", "50000")
	}
	logf, err := os.Create(c.logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child keeps its own descriptor
	c.cmd = exec.Command(bin, args...)
	c.cmd.Stdout, c.cmd.Stderr = logf, logf
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS="+serverGOMAXPROCS)
	// If the harness dies without running its deferred stop, the kernel
	// still takes the server down.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cpus.startOn(c.cmd); err != nil {
		return nil, err
	}
	go func() {
		c.waitErr = c.cmd.Wait()
		close(c.exited)
	}()
	if err := c.waitReady(ctx); err != nil {
		c.kill()
		return nil, fmt.Errorf("%w\n%s", err, c.logTail())
	}
	return c, nil
}

func (c *child) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.client.Get(c.httpURL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-c.exited:
			return fmt.Errorf("aqserver exited during startup: %v", c.waitErr)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return errors.New("aqserver not ready within 10s")
		}
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stop sends SIGTERM and expects the graceful drain to exit 0.
func (c *child) stop() error {
	select {
	case <-c.exited:
		return fmt.Errorf("aqserver had already exited: %v\n%s", c.waitErr, c.logTail())
	default:
	}
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-c.exited:
		if c.waitErr != nil {
			return fmt.Errorf("aqserver did not exit 0 on SIGTERM: %v\n%s", c.waitErr, c.logTail())
		}
		return nil
	case <-time.After(20 * time.Second):
		c.kill()
		return errors.New("aqserver did not drain within 20s of SIGTERM; killed")
	}
}

// kill is the unconditional teardown: it never leaves the child running.
func (c *child) kill() {
	select {
	case <-c.exited:
		return
	default:
	}
	c.cmd.Process.Kill()
	<-c.exited
}

func (c *child) logTail() string {
	b, err := os.ReadFile(c.logPath)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return "--- aqserver log tail ---\n" + string(b)
}

func (c *child) getBody(path string) ([]byte, error) {
	resp, err := c.client.Get(c.httpURL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func (c *child) getJSON(path string, v any) error {
	b, err := c.getBody(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

func (c *child) postJSON(path string, body any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.client.Post(c.httpURL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("POST %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return nil
}

// register creates the workload's sources and queries over the API.
func (c *child) register(w workload) error {
	for _, s := range w.sources {
		if err := c.postJSON("/api/sources", map[string]string{"name": s.name}); err != nil {
			return err
		}
	}
	for _, q := range w.queries {
		if err := c.postJSON("/api/queries", map[string]string{"name": q.name, "tenant": "bench", "cql": q.cql}); err != nil {
			return err
		}
	}
	return nil
}

// queryStatus is the part of aqserver's status JSON the harness reads.
type queryStatus struct {
	Name     string `json:"name"`
	TuplesIn int64  `json:"tuplesIn"`
	Windows  int64  `json:"windowsEmitted"`
	Shed     int64  `json:"shedTuples"`
	Panics   int64  `json:"stagePanics"`
	Health   string `json:"health"`
}

func (c *child) statuses() (map[string]queryStatus, error) {
	var list []queryStatus
	if err := c.getJSON("/api/queries", &list); err != nil {
		return nil, err
	}
	out := make(map[string]queryStatus, len(list))
	for _, s := range list {
		out[s.Name] = s
	}
	return out, nil
}

// readyDegraded returns the /readyz degraded reasons (nil when clean).
func (c *child) readyDegraded() (map[string][]string, error) {
	var r struct {
		Ready    bool                `json:"ready"`
		Degraded map[string][]string `json:"degraded"`
	}
	if err := c.getJSON("/readyz", &r); err != nil {
		return nil, err
	}
	if !r.Ready {
		return map[string][]string{"server": {"not ready"}}, nil
	}
	return r.Degraded, nil
}

// cpuSeconds reads the CPU time the server has consumed: the on-CPU
// nanoseconds of every thread from /proc/<pid>/task/*/schedstat, or, on a
// kernel without scheduler statistics, utime+stime from /proc/<pid>/stat
// at its 10 ms resolution.
func (c *child) cpuSeconds() (float64, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", c.pid()))
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		ns += n
	}
	if ns > 0 {
		return float64(ns) / 1e9, nil
	}

	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.pid()))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the line, i.e. index 11 and 12 after ")".
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	const userHZ = 100 // USER_HZ is 100 on every Linux ABI Go supports
	return float64(ut+st) / userHZ, nil
}

// rssPeakMB reads VmHWM from /proc/<pid>/status.
func (c *child) rssPeakMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.pid()))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// promSample is one /metrics line.
type promSample struct {
	name   string
	labels string // raw label block without braces, e.g. `query="q0",le="4"`
	value  float64
}

func (s promSample) label(key string) string {
	for _, kv := range strings.Split(s.labels, ",") {
		if v, ok := strings.CutPrefix(kv, key+`="`); ok {
			return strings.TrimSuffix(v, `"`)
		}
	}
	return ""
}

// scrape reads and parses /metrics (Prometheus text format 0.0.4; label
// values in this server never contain commas or escaped quotes).
func (c *child) scrape() ([]promSample, error) {
	b, err := c.getBody("/metrics")
	if err != nil {
		return nil, err
	}
	var out []promSample
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := promSample{name: line[:sp], value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			s.labels = strings.TrimSuffix(s.name[i+1:], "}")
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out, nil
}

// memStats reads runtime.MemStats fields from the heap profile's text
// trailer (/debug/pprof/heap?debug=1 prints them as "# Name = value").
func (c *child) memStats() (map[string]float64, error) {
	b, err := c.getBody("/debug/pprof/heap?debug=1")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "# ")
		if !ok {
			continue
		}
		name, val, ok := strings.Cut(rest, " = ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	if _, ok := out["TotalAlloc"]; !ok {
		return nil, errors.New("heap profile carries no MemStats trailer")
	}
	return out, nil
}
