package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// smokeConfig shrinks a run to a 300 ms window, 512 counted ops and a
// sixteenth of the geometry, so all four workloads fit a test run.
func smokeConfig(t *testing.T) runConfig {
	return runConfig{
		window: 300 * time.Millisecond, warmup: 50 * time.Millisecond, slices: 2, countedN: 512,
		layerWindow: 150 * time.Millisecond, layerCountedN: 512, probeK: 256,
		scale: 16, outDir: t.TempDir(),
	}
}

// TestManifest holds BENCHMARK.json equal to the metric tables it is
// generated from, and both inside the contract's limits.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, fromTables any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	m := buildManifest()
	generated, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(generated, &fromTables); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, fromTables) {
		t.Fatal("BENCHMARK.json differs from the tables in metrics.go and spec.go; regenerate it with -manifest")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is malformed", u, n)
		}
	}
	for _, w := range m.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("bound %v of %s is outside (0, 0.25]", d.Bound, d.Name)
		}
		setup = setup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !setup {
		t.Error("end_to_end lacks setup_s")
	}
	for _, d := range m.PerLayer {
		check(d.Name, d.Unit)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
}

// TestStreamFollowsSeed: the same seed generates the same requests, a
// different seed different ones.
func TestStreamFollowsSeed(t *testing.T) {
	draw := func(w *workloadSpec, seed uint64) []op {
		cs := newClientState(w, 0)
		cs.reseed(seed)
		ops := make([]op, 64)
		for i := range ops {
			ops[i] = cs.next()
		}
		return ops
	}
	for _, w := range workloads {
		if !reflect.DeepEqual(draw(w, 1), draw(w, 1)) {
			t.Errorf("%s: seed 1 drew two different streams", w.name)
		}
		if reflect.DeepEqual(draw(w, 1), draw(w, 2)) {
			t.Errorf("%s: seeds 1 and 2 drew the same stream", w.name)
		}
	}
}

// TestSmoke runs every workload in both modes, twice with one seed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots sixteen serving stacks")
	}
	cfg := smokeConfig(t)
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			var runs [2][2]*runResult
			for rep := range runs {
				for trace, f := range []func(*workloadSpec, uint64, runConfig) (*runResult, error){runEndToEnd, runPerLayer} {
					r, err := f(spec, 7, cfg)
					if err != nil {
						t.Fatal(err)
					}
					// Exactly the declared names, all finite.
					if err := validate(r); err != nil {
						t.Fatal(err)
					}
					if !r.Correct || r.Failed != 0 {
						t.Fatalf("trace %d: correct=%v failed=%d first=%+v problems=%v", trace, r.Correct, r.Failed, r.FirstFailure, r.Problems)
					}
					runs[rep][trace] = r
				}
			}

			// The counted pass repeats exactly for a seed.
			for trace := range runs[0] {
				a, b := runs[0][trace], runs[1][trace]
				for _, d := range declsFor(trace) {
					if d.exact && a.Metrics[d.Name] != b.Metrics[d.Name] {
						t.Errorf("%s differs between two runs of seed 7: %v and %v", d.Name, a.Metrics[d.Name], b.Metrics[d.Name])
					}
				}
			}
			if a, b := runs[0][0].StreamHash, runs[1][0].StreamHash; a == "" || a != b {
				t.Errorf("counted op stream hashes %q and %q", a, b)
			}

			// Self times telescope to the fsclient probe.
			m := runs[0][1].Metrics
			for _, class := range []string{"read", "write"} {
				mid := map[string]string{"read": "get", "write": "put"}[class]
				sum := m["fsclient."+class+"_self_us"] + m["server."+class+"_self_us"] +
					m["kernel."+class+"_self_us"] + m["kvstore."+mid+"_self_us"] + m["memctrl."+class+"_self_us"]
				if want := m["fsclient."+class+"_us"]; math.Abs(sum-want) > 1e-6 {
					t.Errorf("%s self times sum to %v, fsclient.%s_us is %v", class, sum, class, want)
				}
			}
			if spec.readPct < 100 && m["fsclient.write_us"] <= 0 || spec.readPct > 0 && m["fsclient.read_us"] <= 0 {
				t.Errorf("a class the workload issues has no fsclient probe: read %v write %v", m["fsclient.read_us"], m["fsclient.write_us"])
			}

			// The replay's spans were written out.
			data, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+spec.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct{ Spans []span }
			if err := json.Unmarshal(data, &tr); err != nil || len(tr.Spans) < cfg.probeK {
				t.Errorf("trace file holds %d spans (err %v)", len(tr.Spans), err)
			}
		})
	}
}
