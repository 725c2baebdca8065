package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeOptions shrinks a run to a couple of seconds: a fifth of the paced
// rate and one set-up cycle.
func smokeOptions() options {
	return options{seed: 1, seconds: 2, warm: 0.5, trace: true, scale: 0.2,
		rounds: 1, idleWindow: 50 * time.Millisecond}
}

// serverChildren lists live processes started from bin by this process.
func serverChildren(t *testing.T, bin string) []string {
	t.Helper()
	procs, err := filepath.Glob("/proc/[0-9]*")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range procs {
		cmdline, err := os.ReadFile(filepath.Join(p, "cmdline"))
		if err != nil || !bytes.HasPrefix(cmdline, []byte(bin+"\x00")) {
			continue
		}
		stat, err := os.ReadFile(filepath.Join(p, "stat"))
		if err != nil {
			continue // exited between the two reads
		}
		// Fields after "(comm)": state, then ppid.
		f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
		if len(f) > 1 && f[1] == fmt.Sprint(os.Getpid()) && f[0] != "Z" {
			out = append(out, filepath.Base(p))
		}
	}
	return out
}

func assertNothingLeft(t *testing.T, ev env) {
	t.Helper()
	if _, err := os.Stat(ev.runDir); !os.IsNotExist(err) {
		t.Errorf("scratch directory %s left behind (err=%v)", ev.runDir, err)
	}
	if left := serverChildren(t, ev.bin); len(left) > 0 {
		t.Errorf("aqserver children left running: %v", left)
	}
}

// TestSmoke runs every workload, traced, against a real aqserver child and
// requires a passing identity check, no failed operations, and every named
// metric of both sets present and finite.
func TestSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	ev, cleanup, err := prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	opt := smokeOptions()
	for _, w := range workloads {
		res, err := runWorkload(ctx, ev, w, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.correct || res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w.name, res.correct, res.attempted, res.failed, res.mismatch)
		}
		for _, traced := range []bool{false, true} {
			if _, err := toReport(res, traced); err != nil {
				t.Error(err)
			}
		}
		if n := len(res.layer); n != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics measured, %d named", w.name, n, len(perLayer))
		}
		for _, k := range []string{"core.insert_ns_per_tuple", "durable.append_ns_per_tuple"} {
			want := (k[0] == 'c' && w.name == "adaptive_drift") || (k[0] == 'd' && w.durable)
			if got := res.layer[k] > 0; got != want {
				t.Errorf("%s: %s = %v, want work only where the layer is in use", w.name, k, res.layer[k])
			}
		}
		if _, err := os.Stat(filepath.Join(ev.root, "bench", "out", "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no Chrome trace written: %v", w.name, err)
		}
	}
	cleanup()
	assertNothingLeft(t, ev)
}

// TestCancelLeavesNothing interrupts a run mid-load, the way SIGINT does,
// and requires the server child and the scratch directory to be gone.
func TestCancelLeavesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ev, cleanup, err := prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	opt := smokeOptions()
	opt.seconds = 5
	time.AfterFunc(2500*time.Millisecond, cancel)
	if _, err := runWorkload(ctx, ev, workloads[0], opt); err == nil {
		t.Fatal("cancelled run reported success")
	}
	cleanup()
	assertNothingLeft(t, ev)
}

// TestContractMatchesHarness keeps BENCHMARK.json and the harness's own
// metric and workload lists from drifting apart: same names, same units,
// same order.
func TestContractMatchesHarness(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []named, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d, the harness %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the harness %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names []metricDef
	for _, w := range workloads {
		names = append(names, metricDef{name: w.name})
	}
	same("workloads", spec.Workloads, names)
}
