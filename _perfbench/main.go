// Command perfbench is the InFrame benchmark. It runs one seeded workload
// through the pipeline's public calls for a fixed wall-clock budget and
// prints, as its last line, one JSON object: whether the decoded output
// matched the transmitted payload, how many GOB observations were
// attempted and failed, and the metrics of the chosen mode — end-to-end
// figures of untraced passes (-trace 0), or per-layer figures of a traced
// pass replayed call by call (-trace 1).
//
// Usage, from the repository root:
//
//	bash _perfbench/run.sh --workload gray-static --seed 1 --seconds 10 --trace 0
//
// The traced mode also writes every span, its per-layer aggregates (count,
// total, self time, p50/p99) and the run context to
// .bench_build/perfbench-trace/trace-<workload>-<seed>.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"inframe/internal/benchcmp"
	"inframe/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Set-up runs at least minSetups times per run; setup_s is their median.
const minSetups = 15

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	spec     *spec
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: gray-static, sunrise-fleet or pose-tilt20")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: payload, video, population and impairments derive from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "wall-clock seconds to keep repeating passes (at least one pass runs)")
	fs.IntVar(&traceFlag, "trace", 0, "0 = untraced passes, end-to-end metrics; 1 = untraced passes each followed by a traced replay, per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "perfbench-trace"), "directory for the span JSON of traced runs")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition naming each mode's metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	w, err := findWorkload(o.workload)
	if err == nil {
		o.spec, err = loadSpec(*specPath)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var res result
	if o.trace {
		res, err = traced(w, o, stdout)
	} else {
		res, err = untraced(w, o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, o.seed, err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil || !res.Correct {
		return 1
	}
	return 0
}

// measured is one timed pass.
type measured struct {
	setupS  float64
	wallS   float64
	allocB  uint64
	gcs     uint32
	gcPause time.Duration
	out     outcome
}

// timedSetup builds a fresh pass and returns it with its set-up time.
func timedSetup(w workload, seed int64) (pass, float64, error) {
	runtime.GC()
	t0 := time.Now()
	p, err := w.setup(seed, w.simSeconds)
	return p, time.Since(t0).Seconds(), err
}

// timedRun runs one pass on a collected heap and records its wall time,
// heap allocation and garbage collections.
func timedRun(p pass, tr *tracer) (measured, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	out, err := p.run(tr)
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	return measured{
		wallS:   wall,
		allocB:  after.TotalAlloc - before.TotalAlloc,
		gcs:     after.NumGC - before.NumGC,
		gcPause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		out:     out,
	}, err
}

// check is the correctness gate of a pass: a single receiver must deliver
// at least one GOB the oracle confirms; a fleet, scored from its Result,
// at least one delivered GOB from a receiver that decoded. With a
// reference the pass must also repeat its decoded digest.
func check(o *outcome, ref *outcome) error {
	if o.Receivers > 1 {
		if o.Delivered == 0 || o.NeverDecoded == o.Receivers {
			return errors.New("fleet delivered no GOB")
		}
	} else if o.Correct == 0 {
		return errors.New("no oracle-correct GOB delivered")
	}
	if ref != nil && o.Digest != ref.Digest {
		return fmt.Errorf("decoded digest %016x differs from reference %016x", o.Digest, ref.Digest)
	}
	return nil
}

// failedResult is the result of a run that failed its correctness gate:
// every GOB it attempted, including the failing pass's, counts as failed.
func failedResult(gobs int) result {
	gobs = max(gobs, 1)
	return result{Correct: false, Attempted: gobs, Failed: gobs, Metrics: map[string]metric{}}
}

// measure repeats set-up and pass for the wall-clock budget (at least one
// pass), checking every pass against the first. With a tracer, one
// untraced warm-up pass comes first (it grows the heap, so it would bias
// the overhead figure), and then every untraced pass is followed by a
// traced replay of fresh, identical inputs.
func measure(w workload, o options, tr *tracer) (setups []float64, plain, replays []measured, err error) {
	if err := w.prepare(o.seed); err != nil {
		return nil, nil, nil, fmt.Errorf("setup: %w", err)
	}
	var ref *outcome
	if tr != nil {
		m, err := setupAndRun(w, o, nil, nil)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("warm-up pass: %w", err)
		}
		ref = &m.out
	}
	// Start another pass only while it would end, at its predecessor's
	// length, less than half a pass past the budget.
	start := time.Now()
	for len(plain) == 0 || time.Since(start).Seconds()+plain[len(plain)-1].wallS/2 < o.seconds {
		m, err := setupAndRun(w, o, nil, ref)
		if err != nil {
			return nil, append(plain, m), nil, err
		}
		setups = append(setups, m.setupS)
		plain = append(plain, m)
		if ref == nil {
			ref = &plain[0].out
		}
		if tr == nil {
			continue
		}
		tr.setRun(fmt.Sprintf("%s/%d/traced/%d", w.name, o.seed, len(replays)))
		if m, err = setupAndRun(w, o, tr, ref); err != nil {
			return nil, append(plain, m), nil, fmt.Errorf("traced pass: %w", err)
		}
		replays = append(replays, m)
	}
	return setups, plain, replays, nil
}

// setupAndRun builds a fresh pass, runs it and applies the correctness
// gate against ref.
func setupAndRun(w workload, o options, tr *tracer, ref *outcome) (measured, error) {
	p, setupS, err := timedSetup(w, o.seed)
	if err != nil {
		return measured{}, fmt.Errorf("setup: %w", err)
	}
	m, err := timedRun(p, tr)
	m.setupS = setupS
	if err == nil {
		err = check(&m.out, ref)
	}
	return m, err
}

// untraced reports the end-to-end metrics: medians over passes for
// timings and allocation, peak memory of the process.
func untraced(w workload, o options, stdout io.Writer) (result, error) {
	setups, runs, _, err := measure(w, o, nil)
	if err != nil {
		return failedResult(gobsOf(runs)), err
	}
	peakRSS := peakRSSMiB()
	for len(setups) < minSetups {
		_, setupS, err := timedSetup(w, o.seed)
		if err != nil {
			return failedResult(gobsOf(runs)), fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, setupS)
	}
	// The first pass grows the heap from the OS; time the later ones when
	// there are any.
	timed := runs
	if len(runs) > 1 {
		timed = runs[1:]
	}
	rt := make([]float64, len(timed))
	alloc := make([]float64, len(timed))
	for i, m := range timed {
		rt[i] = m.out.SimSeconds / m.wallS
		alloc[i] = float64(m.allocB) / (1 << 20)
	}
	q := &runs[0].out
	all := qualityMetrics(q)
	all["setup_s"] = metric{median(setups), "s"}
	all["realtime_x"] = metric{median(rt), "x"}
	all["peak_rss_mb"] = metric{peakRSS, "MiB"}
	all["alloc_mb"] = metric{median(alloc), "MiB"}
	if q.CalibS > 0 {
		all["calib_s"] = metric{q.CalibS, "s"}
	}
	ctx := contextRecord(w, o, len(runs))
	ctx["pass_wall_s"] = walls(runs)
	ctx["setup_s_all"] = setups
	report(stdout, ctx, all)
	picked, err := pick(all, o.spec.EndToEnd)
	if err != nil {
		return failedResult(gobsOf(runs)), err
	}
	return result{Correct: true, Attempted: gobsOf(runs), Metrics: picked}, nil
}

// gobsOf is the number of GOB observations the passes attempted.
func gobsOf(runs []measured) int {
	n := 0
	for _, m := range runs {
		n += m.out.GOBs
	}
	return n
}

// qualityMetrics are the oracle-scored figures of one pass.
func qualityMetrics(q *outcome) map[string]metric {
	m := map[string]metric{
		"gob_fail_rate":  {q.gobFailRate(), "ratio"},
		"bit_error_rate": {q.BER, "ratio"},
		"first_decode_s": {q.FirstDecodeS, "sim_s"},
	}
	if q.Oracle {
		m["goodput_bps"] = metric{q.goodputBps(), "bit/s"}
		m["undetected_gob_rate"] = metric{q.undetectedRate(), "ratio"}
	}
	return m
}

// traced alternates untraced passes with traced replays for the budget and
// reports per-layer metrics: span timings per traced pass, counters of the
// (identical) passes, and the tracing overhead.
func traced(w workload, o options, stdout io.Writer) (result, error) {
	tr := newTracer()
	_, plain, replays, err := measure(w, o, tr)
	if err != nil {
		return failedResult(gobsOf(plain)), err
	}
	n := float64(len(replays))
	agg := tr.aggregate()
	get := func(name string) *layerStats {
		if st := agg[name]; st != nil {
			return st
		}
		return &layerStats{}
	}
	busy := func(names ...string) float64 {
		total := 0.0
		for _, name := range names {
			total += get(name).TotalS
		}
		return total / n
	}
	// Overhead: each traced pass minus its probes, against the untraced
	// pass it followed.
	overhead := make([]float64, len(replays))
	for i, m := range replays {
		overhead[i] = m.wallS - probeSeconds(tr, i) - plain[i].wallS
	}
	c := &replays[0].out
	all := qualityMetrics(c)
	for name, m := range map[string]metric{
		"mux.frame_ms.p50":        {get("mux.frame").P50Ms, "ms"},
		"mux.frame_ms.p99":        {get("mux.frame").P99Ms, "ms"},
		"mux.busy_s":              {busy("mux.frame"), "s"},
		"mux.blocks":              {float64(c.Render.Blocks), "count"},
		"mux.blocks_skipped":      {float64(c.Render.BlocksSkipped), "count"},
		"mux.headroom_scans":      {float64(c.Render.HeadroomBlocks), "count"},
		"mux.headroom_skipped":    {float64(c.Render.HeadroomSkipped), "count"},
		"mux.video_loads":         {float64(c.Render.VideoRefreshes), "count"},
		"mux.video_skipped":       {float64(c.Render.VideoSkipped), "count"},
		"display.push_ms.p50":     {get("display.push").P50Ms, "ms"},
		"display.push_ms.p99":     {get("display.push").P99Ms, "ms"},
		"display.busy_s":          {busy("display.push"), "s"},
		"camera.capture_ms.p50":   {get("camera.capture").P50Ms, "ms"},
		"camera.capture_ms.p99":   {get("camera.capture").P99Ms, "ms"},
		"camera.busy_s":           {busy("camera.capture"), "s"},
		"camera.captures":         {float64(get("camera.capture").Count) / n, "count"},
		"impair.apply_ms.p50":     {get("impair.apply").P50Ms, "ms"},
		"impair.busy_s":           {busy("impair.apply", "impair.sequence"), "s"},
		"impair.dropped":          {float64(tr.counts["impair.dropped"]) / n, "count"},
		"impair.duplicated":       {float64(tr.counts["impair.duplicated"]) / n, "count"},
		"channel.simulate_s":      {busy("channel.simulate"), "s"},
		"register.detect_quad_s":  {busy("register.detect_quad"), "s"},
		"register.calibrate_s":    {busy("register.calibrate"), "s"},
		"register.corner_err_px":  {c.CornerErrPx, "px"},
		"register.projective":     {boolCount(c.Projective), "count"},
		"demux.measure_ms.p50":    {get("demux.measure").P50Ms, "ms"},
		"demux.measure_ms.p99":    {get("demux.measure").P99Ms, "ms"},
		"demux.measure_busy_s":    {busy("demux.measure"), "s"},
		"demux.decode_s":          {busy("demux.decode"), "s"},
		"demux.captures_scored":   {float64(c.Degrade.Quality.N()), "count"},
		"demux.captures_excluded": {float64(c.Degrade.ExcludedCaptures), "count"},
		"demux.gap_frames":        {float64(c.Degrade.GapFrames), "count"},
		"demux.resyncs":           {float64(c.Degrade.Resyncs), "count"},
		"fleet.run_s":             {busy("fleet.run"), "s"},
		"fleet.never_decoded":     {float64(c.NeverDecoded), "count"},
		"fleet.render_skip_ratio": {c.Render.SkipRate(), "ratio"},
		"pool.gets":               {float64(plain[0].out.PoolGets), "count"},
		"pool.misses":             {float64(plain[0].out.PoolMisses), "count"},
		"pool.high_water":         {float64(plain[0].out.PoolHighWater), "count"},
		"go.gc_cycles":            {float64(plain[0].gcs), "count"},
		"go.gc_pause_ms":          {float64(plain[0].gcPause.Microseconds()) / 1e3, "ms"},
		"trace.overhead_s":        {median(overhead), "s"},
		"trace.spans":             {float64(len(tr.spans)) / n, "count"},
	} {
		all[name] = m
	}
	for cause := core.CauseParity; int(cause) < core.NumErasureCauses; cause++ {
		all["demux.erasure."+erasureName(cause)] = metric{float64(c.Degrade.Causes[cause]), "count"}
	}
	ctx := contextRecord(w, o, len(replays))
	ctx["untraced_pass_s"] = walls(plain)
	ctx["traced_pass_s"] = walls(replays)
	ctx["digest"] = fmt.Sprintf("%016x", c.Digest)
	if c.CalibS > 0 {
		ctx["calib_s"] = plain[0].out.CalibS
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("trace-%s-%d.json", w.name, o.seed))
	if err := tr.write(path, ctx); err != nil {
		return failedResult(gobsOf(plain)), fmt.Errorf("writing spans: %w", err)
	}
	report(stdout, ctx, all)
	picked, err := pick(all, o.spec.PerLayer)
	if err != nil {
		return failedResult(gobsOf(plain)), err
	}
	return result{Correct: true, Attempted: gobsOf(plain), Metrics: picked}, nil
}

func walls(runs []measured) []float64 {
	out := make([]float64, len(runs))
	for i, m := range runs {
		out[i] = m.wallS
	}
	return out
}

// probeSeconds is the time traced pass i spent in probe spans.
func probeSeconds(tr *tracer, i int) float64 {
	total := 0.0
	for _, s := range tr.spans {
		if s.Name == "probe" && s.Run == tr.runName(i) {
			total += s.seconds()
		}
	}
	return total
}

func boolCount(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// erasureName spells a cause as a metric-name segment.
func erasureName(c core.ErasureCause) string {
	switch c {
	case core.CauseLowConfidence:
		return "low_confidence"
	case core.CauseNoSwing:
		return "no_swing"
	case core.CauseNoSignal:
		return "no_signal"
	case core.CauseNoCapture:
		return "no_capture"
	default:
		return c.String()
	}
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// contextRecord is the informational per-run record: toolchain, cores,
// inputs and a machine-speed reading that lets later comparisons tell
// machine drift from a code change.
func contextRecord(w workload, o options, passes int) map[string]any {
	return map[string]any{
		"workload":    w.name,
		"seed":        o.seed,
		"sim_seconds": w.simSeconds,
		"passes":      passes,
		"go_version":  runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		// Timed after the passes, so its 16 MiB buffer is outside
		// peak_rss_mb.
		"calib_ns_per_op": benchcmp.Calibrate(),
	}
}

// report prints the context and every metric by name, one per line, ahead
// of the JSON result line.
func report(out io.Writer, ctx map[string]any, all map[string]metric) {
	line, _ := json.Marshal(ctx)
	fmt.Fprintf(out, "context %s\n", line)
	for _, name := range sortedKeys(all) {
		m := all[name]
		fmt.Fprintf(out, "metric %-26s %.6g %s\n", name, m.Value, m.Unit)
	}
}

// spec is the part of BENCHMARK.json that names each mode's metrics.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// pick selects the metrics a mode reports; each must have been computed,
// in the unit the spec declares.
func pick(all map[string]metric, want []specMetric) (map[string]metric, error) {
	out := make(map[string]metric, len(want))
	for _, w := range want {
		m, ok := all[w.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s not computed", w.Name)
		}
		if m.Unit != w.Unit {
			return nil, fmt.Errorf("metric %s in %s, spec says %s", w.Name, m.Unit, w.Unit)
		}
		out[w.Name] = m
	}
	return out, nil
}
