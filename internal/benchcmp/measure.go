package benchcmp

import (
	"fmt"
	"runtime"
	"testing"

	"inframe/internal/camera"
	"inframe/internal/channel"
	"inframe/internal/core"
	"inframe/internal/display"
	"inframe/internal/fleet"
	"inframe/internal/frame"
	"inframe/internal/video"
)

// FleetReceivers is the population size of the Fleet baseline entries; the
// receivers/sec headline is FleetReceivers / (ns-per-op · 1e-9).
const FleetReceivers = 8

// FleetConfig returns the baseline fleet shape: one rendered 4·τ stream on
// the scaled paper geometry decoded by a FleetReceivers-member default
// population, sharing a capped pool and the given worker budget — the same
// shape BenchmarkFleet measures.
func FleetConfig(scale, w int) (fleet.Config, error) {
	l, err := core.ScaledPaperLayout(scale)
	if err != nil {
		return fleet.Config{}, err
	}
	cfg := fleet.DefaultConfig(l, 1280/scale, 720/scale, FleetReceivers, 1)
	cfg.Seconds = float64(4*cfg.Params.Tau) / cfg.Display.RefreshHz
	cfg.Workers = w
	cfg.PoolCap = 4
	return cfg, nil
}

// Content is one video source of the EndToEnd and PushTo rows: Infix
// names its EndToEnd rows ("EndToEnd/" + Infix + "workers=N"; empty for the
// original gray rows), Name its PushTo row ("PushTo/" + Name), and Source
// builds the clip at the panel size.
type Content struct {
	Infix  string
	Name   string
	Source func(w, h int) video.Source
}

// EndToEndContents are the sources the EndToEnd rows run on: static gray,
// where the incremental renderer and the display's repeated frames skip
// most of the work, and moving sun-rise video, where they cannot.
// BenchmarkEndToEnd measures the same two.
var EndToEndContents = []Content{
	{Infix: "", Name: "gray", Source: func(w, h int) video.Source { return video.Gray(w, h) }},
	{Infix: "sunrise/", Name: "sunrise", Source: func(w, h int) video.Source { return video.NewSunRise(w, h, 1) }},
}

// CaptureSizes returns the sensor sizes of the CameraCapture rows at
// scale: the scaled capture size and its ¾ and ½, the three sensors of
// fleet.DefaultPopulation. On the scale-2 panel (960×540) they are the
// 1.5×, 2× and 3× area reductions 640×360, 480×270 and 320×180.
func CaptureSizes(scale int) [][2]int {
	w, h := 1280/scale, 720/scale
	return [][2]int{{w, h}, {3 * w / 4, 3 * h / 4}, {w / 2, h / 2}}
}

// CaptureBench builds a CameraCapture row: the scaled panel showing the
// first rendered frame of the gray PushTo row, and a default w×h camera at
// Workers 1 and the given BlurRadius drawing from its own pool, so one op
// is the rolling-shutter synthesis, defocus blur (blur > 0), area
// reduction, encode, noise and quantization of a capture.
// BenchmarkCameraCapture measures the same.
func CaptureBench(scale, w, h, blur int) (*camera.Camera, *display.Display, *frame.Pool, error) {
	m, dcfg, _, err := PushToBench(scale, EndToEndContents[0].Source)
	if err != nil {
		return nil, nil, nil, err
	}
	d, err := display.New(dcfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := m.PushTo(d, 1); err != nil {
		return nil, nil, nil, err
	}
	pool := frame.NewPool()
	cfg := channel.DefaultConfig(w, h).Camera
	cfg.Workers = 1
	cfg.BlurRadius = blur
	cfg.Pool = pool
	cam, err := camera.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return cam, d, pool, nil
}

// PushToBench builds a PushTo row on content src: a Workers-1 multiplexer
// on the scaled panel, the display config each op pushes a fresh display
// of, and the 4·τ frames one op pushes. BenchmarkPushTo measures the same.
func PushToBench(scale int, src func(w, h int) video.Source) (*core.Multiplexer, display.Config, int, error) {
	l, err := core.ScaledPaperLayout(scale)
	if err != nil {
		return nil, display.Config{}, 0, err
	}
	p := core.DefaultParams(l)
	p.Workers = 1
	m, err := core.NewMultiplexer(p, src(l.FrameW, l.FrameH), core.NewRandomStream(l, 1))
	if err != nil {
		return nil, display.Config{}, 0, err
	}
	return m, channel.DefaultConfig(1280/scale, 720/scale).Display, 4 * p.Tau, nil
}

// CaptureRows returns the CameraCapture rows at scale: one unblurred
// capture per CaptureSizes sensor, plus the scaled capture size at the
// BlurRadius 1 of channel.DefaultConfig ("/blur1"), which the unblurred
// rows leave out of the ledger.
func CaptureRows(scale int) []CaptureRow {
	sizes := CaptureSizes(scale)
	rows := make([]CaptureRow, 0, len(sizes)+1)
	for _, sz := range sizes {
		rows = append(rows, CaptureRow{Name: fmt.Sprintf("%dx%d", sz[0], sz[1]), W: sz[0], H: sz[1]})
	}
	sz := sizes[0]
	return append(rows, CaptureRow{Name: fmt.Sprintf("%dx%d/blur1", sz[0], sz[1]), W: sz[0], H: sz[1], Blur: 1})
}

// CaptureRow is one CameraCapture row: its name below "CameraCapture/",
// the sensor size and the camera's BlurRadius.
type CaptureRow struct {
	Name       string
	W, H, Blur int
}

// RenderFrames renders display frames [0, n) with Frame and hands each
// back with Recycle: one op of the render-only Frame rows, on a
// PushToBench multiplexer.
func RenderFrames(m *core.Multiplexer, n int) {
	for k := 0; k < n; k++ {
		m.Recycle(m.Frame(k))
	}
}

// pipeline builds the scaled paper pipeline on content src with every
// stage's worker pool set to w and one shared frame pool — the same shape
// benchPipeline gives the BenchmarkEndToEnd / BenchmarkDecodeCaptures
// tests, so baseline numbers are directly comparable to `go test -bench`
// output.
func pipeline(scale, w int, src func(w, h int) video.Source) (*core.Multiplexer, channel.Config, *core.Receiver, int, *frame.Pool, error) {
	l, err := core.ScaledPaperLayout(scale)
	if err != nil {
		return nil, channel.Config{}, nil, 0, nil, err
	}
	pool := frame.NewPool()
	p := core.DefaultParams(l)
	p.Workers = w
	p.Pool = pool
	m, err := core.NewMultiplexer(p, src(l.FrameW, l.FrameH), core.NewRandomStream(l, 1))
	if err != nil {
		return nil, channel.Config{}, nil, 0, nil, err
	}
	cfg := channel.DefaultConfig(1280/scale, 720/scale)
	cfg.Workers = w
	cfg.Pool = pool
	cfg.Camera.Workers = w
	rcfg := core.DefaultReceiverConfig(p, 1280/scale, 720/scale)
	rcfg.Exposure = cfg.Camera.Exposure
	rcfg.ReadoutTime = cfg.Camera.ReadoutTime
	rcfg.Workers = w
	rcfg.Pool = pool
	rcv, err := core.NewReceiver(rcfg)
	if err != nil {
		return nil, channel.Config{}, nil, 0, nil, err
	}
	return m, cfg, rcv, 4 * p.Tau, pool, nil
}

// measureRepeats is how many times each benchmark is sampled; the fastest
// sample is kept. Benchmark noise on a shared container is one-sided (CPU
// steal and scheduler interference only ever slow a run down), so the
// minimum across a few repetitions is the robust ns/op estimator — a single
// sample of the short Fleet benchmark can swing past the benchdiff
// tolerance on its own.
const measureRepeats = 3

// measureBest runs fn through testing.Benchmark measureRepeats times and
// returns the fastest run. allocs/op and bytes/op come from the same run,
// which is fine: they are deterministic up to pool warm-up (±1). Each
// sample starts from a freshly collected heap: the stages run back to back
// in one process, and whatever garbage the previous stage left alive skews
// the GC pacing the next sample sees — Fleet measured after EndToEnd swings
// ±15% from that alone, while a clean-process Fleet holds ±2%.
func measureBest(fn func(b *testing.B)) testing.BenchmarkResult {
	runtime.GC()
	best := testing.Benchmark(fn)
	for i := 1; i < measureRepeats; i++ {
		runtime.GC()
		if r := testing.Benchmark(fn); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// calibSize and calibPasses size the calibration kernel: a fixed
// float32 stream + int32 accumulate pass shaped like the pipeline's hot
// loops (clamped multiply-add over whole frames, integer reduction). The
// buffer must be far larger than the last-level cache so the kernel is
// memory-bandwidth-bound like the frame pipeline it normalizes: the
// dominant drift on shared containers is memory-controller contention,
// which a cache-resident kernel does not see at all (measured: an L2-sized
// kernel's ns/op moved opposite to the pipeline's between speed states).
const (
	calibSize   = 1 << 22
	calibPasses = 4
)

// calibSink keeps the calibration reduction observable so the kernel cannot
// be optimized away.
var calibSink int32

// Calibrate times the fixed reference kernel and returns its ns/op, best of
// measureRepeats samples. The kernel does a constant amount of work, so its
// ns/op moves only with the machine's effective speed — the normalization
// denominator Compare uses to cancel run-to-run machine drift.
func Calibrate() int64 {
	buf := make([]float32, calibSize)
	for i := range buf {
		buf[i] = float32(i%251) / 4
	}
	var acc int32
	r := measureBest(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			for p := 0; p < calibPasses; p++ {
				for i, v := range buf {
					v = v*1.0009766 + 0.5
					if v > 255 {
						v -= 255
					}
					buf[i] = v
					acc += int32(v)
				}
			}
		}
	})
	calibSink = acc
	return r.NsPerOp()
}

// Measure benchmarks EndToEnd (render + channel + decode, on every
// EndToEndContents source), DecodeCaptures (receive side only) and Fleet at
// workers=1 and, when the machine has more than one core,
// workers=GOMAXPROCS, plus the single-worker per-stage rows CameraCapture
// (one capture per CaptureRows entry), PushTo (4·τ frames per content)
// and Frame (the render alone: 4·τ Frame + Recycle per content), and
// returns the results as a fresh baseline.
// Every entry is the best of measureRepeats samples, so committed baselines
// and benchdiff's fresh runs estimate the same (noise-free) quantity, and
// the calibration kernel is timed alongside so Compare can normalize away
// whatever speed state the machine was in.
func Measure(scale int) (*Baseline, error) {
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	base := &Baseline{
		Schema:       Schema,
		GoVersion:    runtime.Version(),
		GoOS:         runtime.GOOS,
		GoArch:       runtime.GOARCH,
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Scale:        scale,
		CalibNsPerOp: Calibrate(),
	}
	for _, c := range EndToEndContents {
		for _, w := range counts {
			m, cfg, rcv, nDisplay, pool, err := pipeline(scale, w, c.Source)
			if err != nil {
				return nil, err
			}
			var benchErr error
			r := measureBest(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := channel.Simulate(m, nDisplay, cfg)
					if err != nil {
						benchErr = err
						b.FailNow()
					}
					rcv.DecodeCaptures(res.Captures, res.Times, res.Exposure, nDisplay/rcv.Config().Tau)
					res.Recycle(pool)
				}
			})
			if benchErr != nil {
				return nil, benchErr
			}
			base.Benchmarks = append(base.Benchmarks, entry(fmt.Sprintf("EndToEnd/%sworkers=%d", c.Infix, w), r))
		}
	}
	// Decode-only: one captured sequence (full pool), then time the decode
	// at each worker count.
	gray := EndToEndContents[0].Source
	m, cfg, _, nDisplay, _, err := pipeline(scale, 0, gray)
	if err != nil {
		return nil, err
	}
	res, err := channel.Simulate(m, nDisplay, cfg)
	if err != nil {
		return nil, err
	}
	for _, w := range counts {
		_, _, rcv, _, _, err := pipeline(scale, w, gray)
		if err != nil {
			return nil, err
		}
		r := measureBest(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rcv.DecodeCaptures(res.Captures, res.Times, res.Exposure, nDisplay/rcv.Config().Tau)
			}
		})
		base.Benchmarks = append(base.Benchmarks, entry(fmt.Sprintf("DecodeCaptures/workers=%d", w), r))
	}
	// Drop the captured sequence before the per-stage rows and the Fleet
	// stage so tens of MB of capture frames don't distort their GC pacing.
	res = nil
	_ = res
	// Per-stage rows: one capture per sensor size, and one 4·τ PushTo and
	// one 4·τ render per content, each on one worker.
	for _, row := range CaptureRows(scale) {
		cam, d, pool, err := CaptureBench(scale, row.W, row.H, row.Blur)
		if err != nil {
			return nil, err
		}
		r := measureBest(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pool.Put(cam.Capture(d, 0.001, i))
			}
		})
		base.Benchmarks = append(base.Benchmarks, entry("CameraCapture/"+row.Name, r))
	}
	for _, c := range EndToEndContents {
		m, dcfg, n, err := PushToBench(scale, c.Source)
		if err != nil {
			return nil, err
		}
		var benchErr error
		r := measureBest(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := display.New(dcfg)
				if err == nil {
					err = m.PushTo(d, n)
				}
				if err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		})
		if benchErr != nil {
			return nil, benchErr
		}
		base.Benchmarks = append(base.Benchmarks, entry("PushTo/"+c.Name, r))
	}
	for _, c := range EndToEndContents {
		m, _, n, err := PushToBench(scale, c.Source)
		if err != nil {
			return nil, err
		}
		r := measureBest(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RenderFrames(m, n)
			}
		})
		base.Benchmarks = append(base.Benchmarks, entry("Frame/"+c.Name, r))
	}
	// Fleet: render once, decode a FleetReceivers-member population — the
	// receivers/sec scaling headline.
	for _, w := range counts {
		cfg, err := FleetConfig(scale, w)
		if err != nil {
			return nil, err
		}
		var benchErr error
		r := measureBest(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fleet.Run(cfg); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		})
		if benchErr != nil {
			return nil, benchErr
		}
		base.Benchmarks = append(base.Benchmarks, entry(fmt.Sprintf("Fleet/workers=%d", w), r))
	}
	return base, nil
}

// entry records one benchmark result under name.
func entry(name string, r testing.BenchmarkResult) Entry {
	return Entry{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}
