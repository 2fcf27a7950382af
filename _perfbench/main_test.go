package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"inframe/internal/core"
	"inframe/internal/frame"
)

const specPath = "../BENCHMARK.json"

// runBench runs the benchmark in-process at minimal length (one pass per
// mode) and returns its exit code and parsed last line.
func runBench(t *testing.T, workload string, trace string) (int, result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace,
		"-spec", specPath, "-trace-dir", t.TempDir()}, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", workload, trace, err, out.String(), errb.String())
	}
	return code, res, errb.String()
}

// TestEveryWorkloadEmitsItsMetrics is the benchmark self-test: each
// workload, untraced and traced, passes the correctness gate (the traced
// mode also requires warm-up, untraced and traced digests to agree) and
// reports exactly the metrics BENCHMARK.json names, in its units.
func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if testing.Short() && w.name == "pose-tilt20" {
			continue // blind calibration takes tens of seconds per pass
		}
		for trace, want := range map[string][]specMetric{"0": sp.EndToEnd, "1": sp.PerLayer} {
			code, res, stderr := runBench(t, w.name, trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, result %+v\n%s", w.name, trace, code, res, stderr)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, spec names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%s: metric %s = %+v, want a finite value in %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
			if trace == "0" {
				for _, m := range sp.EndToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestQualityRepeatsExactly: two passes of one seed score identically, and
// a traced replay matches the monolithic calls it stands in for.
func TestQualityRepeatsExactly(t *testing.T) {
	for _, name := range []string{"gray-static", "sunrise-fleet"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		o := options{seed: 11}
		a, err := setupAndRun(w, o, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := setupAndRun(w, o, nil, &a.out)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		tr.setRun("test")
		c, err := setupAndRun(w, o, tr, &a.out)
		if err != nil {
			t.Fatal(err)
		}
		qa, qb := qualityMetrics(&a.out), qualityMetrics(&b.out)
		if !reflect.DeepEqual(qa, qb) {
			t.Errorf("%s: quality differs between passes:\n%v\n%v", name, qa, qb)
		}
		if a.out.Render != c.out.Render || a.out.Degrade.Causes != c.out.Degrade.Causes {
			t.Errorf("%s: traced replay counters differ: %+v vs %+v", name, a.out.Render, c.out.Render)
		}
		held, err := setupAndRun(w, options{seed: 12}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if held.out.Digest == a.out.Digest {
			t.Errorf("%s: seeds 11 and 12 decode identically; the seed does not reach the inputs", name)
		}
	}
}

// TestCornerErrorFrontal: the true map of an untilted camera is the
// frontal full-frame scaling, so solving exactly that scores zero error and
// a one-pixel shift scores one pixel.
func TestCornerErrorFrontal(t *testing.T) {
	l, err := core.ScaledPaperLayout(scale)
	if err != nil {
		t.Fatal(err)
	}
	ff := core.FullFrame(l, 1280, 720)
	h := frame.AxisAlignedHomography(ff.ScaleX, ff.ScaleY, ff.OffX, ff.OffY)
	if e := cornerError(l, 1280, 720, 0, h); e > 1e-9 {
		t.Errorf("frontal corner error %v, want 0", e)
	}
	shifted := frame.AxisAlignedHomography(ff.ScaleX, ff.ScaleY, ff.OffX+1, ff.OffY)
	if e := cornerError(l, 1280, 720, 0, shifted); math.Abs(e-1) > 1e-9 {
		t.Errorf("shifted corner error %v, want 1", e)
	}
	if e := cornerError(l, 1280, 720, 20, h); e < 10 {
		t.Errorf("a frontal solve of a 20° pose scores %v px, want a large error", e)
	}
}

// TestSpanAggregates checks self time and per-name totals on a hand-built
// trace.
func TestSpanAggregates(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "pass", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "mux.frame", StartNs: 10, EndNs: 30},
		{ID: 2, Parent: 0, Name: "mux.frame", StartNs: 40, EndNs: 70},
		{ID: 3, Parent: 2, Name: "probe", StartNs: 50, EndNs: 60},
	}}
	agg := tr.aggregate()
	if got := agg["pass"].SelfS * 1e9; math.Abs(got-50) > 1e-6 {
		t.Errorf("pass self time %v ns, want 50", got)
	}
	mf := agg["mux.frame"]
	if mf.Count != 2 || math.Abs(mf.TotalS*1e9-50) > 1e-6 || math.Abs(mf.SelfS*1e9-40) > 1e-6 {
		t.Errorf("mux.frame aggregate %+v, want count 2, total 50 ns, self 40 ns", mf)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if math.Abs(mf.P50Ms*1e6-20) > 1e-6 || math.Abs(mf.P99Ms*1e6-30) > 1e-6 {
		t.Errorf("mux.frame p50/p99 = %v/%v ms, want 20/30 ns", mf.P50Ms, mf.P99Ms)
	}
}

// TestBalancedPopulation: every seed's fleet carries the model's mean
// capture area and close to its expected profile mix, and different seeds
// still draw different populations.
func TestBalancedPopulation(t *testing.T) {
	seen := make(map[int64]bool)
	for seed := int64(1); seed <= 20; seed++ {
		p, err := setupFleet(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := p.(*fleetPass).cfg
		area := 0.0
		for i := 0; i < cfg.Pop.N; i++ {
			c := cfg.Pop.Spec(i, cfg.Camera).Camera
			area += float64(c.W*c.H) / float64(cfg.Camera.W*cfg.Camera.H)
		}
		if mean := float64(cfg.Pop.N) * (1 + 0.5625 + 0.25) / 3; math.Abs(area/mean-1) > areaTolerance {
			t.Errorf("seed %d: population area %.3f, mean %.3f", seed, area, mean)
		}
		clean := 0
		for i := 0; i < cfg.Pop.N; i++ {
			if cfg.Pop.Spec(i, cfg.Camera).Profile == "clean" {
				clean++
			}
		}
		if clean < 2 || clean > 4 {
			t.Errorf("seed %d: %d clean receivers of %d, model expects %.1f", seed, clean, cfg.Pop.N, cfg.Pop.CleanFrac*float64(cfg.Pop.N))
		}
		seen[cfg.Pop.Seed] = true
	}
	if len(seen) != 20 {
		t.Errorf("20 seeds drew %d distinct populations", len(seen))
	}
}
