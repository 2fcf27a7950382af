// Command inframe-bench regenerates every figure and table of the paper's
// evaluation on the simulated substrate and prints them as text tables.
//
// Usage:
//
//	inframe-bench [-exp all|fig3|fig5|fig6a|fig6b|fig7|ablations|robustness|pose|fleet|speedup] \
//	              [-seconds 2.0] [-flicker-seconds 1.0] [-seed 1] [-scale 2] \
//	              [-workers 0] [-fleet-n 16] [-json path]
//
// -workers bounds every simulation worker pool (0 = GOMAXPROCS, 1 =
// sequential); outputs are bit-identical at any value. -exp speedup times the
// end-to-end pipeline sequentially and with the full pool and reports the
// ratio, verifying on the way that both runs produced identical captures,
// and prints the renderer's RenderStats next to the display's stored vs
// shown drive frames.
// -exp fleet renders the multiplexed stream once and decodes it with an
// N-receiver population (-fleet-n), printing the availability/BER/TTFD
// distributions and the receivers/sec headline.
//
// -json <path> skips the figure tables and instead writes a machine-readable
// baseline (conventionally BENCH_<date>.json at the repo root): ns/op for
// the EndToEnd (static gray and moving sun-rise), DecodeCaptures and Fleet
// stages at workers=1 and GOMAXPROCS, the same shapes
// BenchmarkEndToEnd/BenchmarkDecodeCaptures/BenchmarkFleet measure, so the
// bench trajectory has comparable seed points across PRs.
//
// The output is the source of the measured columns in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"inframe/internal/benchcmp"
	"inframe/internal/channel"
	"inframe/internal/core"
	"inframe/internal/experiments"
	"inframe/internal/video"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig3, fig5, fig6a, fig6b, fig7, ablations, robustness, pose, fleet, speedup")
	seconds := flag.Float64("seconds", 2.0, "simulated seconds per throughput setting")
	flickerSeconds := flag.Float64("flicker-seconds", 1.0, "simulated seconds per flicker rating")
	seed := flag.Int64("seed", 1, "global random seed")
	scale := flag.Int("scale", 2, "paper-geometry divisor (1 = full 1080p, 2 = half)")
	workers := flag.Int("workers", 0, "worker pool bound (0 = GOMAXPROCS, 1 = sequential)")
	fleetN := flag.Int("fleet-n", 16, "fleet experiment population size")
	jsonPath := flag.String("json", "", "write a BENCH_*.json baseline (EndToEnd on gray and sun-rise, DecodeCaptures and Fleet ns/op at workers=1 and GOMAXPROCS) to this path and exit")
	flag.Parse()

	if *jsonPath != "" {
		if err := writeBaseline(*jsonPath, *scale); err != nil {
			fatal(err)
		}
		return
	}

	s := experiments.DefaultSetup()
	s.ThroughputSeconds = *seconds
	s.FlickerSeconds = *flickerSeconds
	s.Seed = *seed
	s.ScaleDiv = *scale
	s.Workers = *workers
	if err := s.Validate(); err != nil {
		fatal(err)
	}

	if *exp == "speedup" {
		if err := speedupReport(os.Stdout, *scale, *seconds); err != nil {
			fatal(err)
		}
		return
	}

	run := func(name string, fn func() error) {
		start := time.Now()
		fmt.Printf("=== %s ===\n", name)
		if err := fn(); err != nil {
			fatal(err)
		}
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}

	matched := false
	want := func(name string) bool {
		ok := *exp == "all" || *exp == name
		matched = matched || ok
		return ok
	}

	if want("fig3") {
		run("Fig. 3 — naive designs vs complementary frames (flicker 0-4)", func() error {
			rows, err := experiments.NaiveDesigns(s)
			if err != nil {
				return err
			}
			experiments.WriteNaive(os.Stdout, rows)
			return nil
		})
	}
	if want("fig5") {
		run("Fig. 5 — temporal smoothing waveform through electronic LPF", func() error {
			series := experiments.SmoothingWaveform()
			// The full series is long; print the transition region and
			// the stability summary.
			fmt.Printf("samples: %d, residual ripple %.3f drive units (input p-p 40)\n",
				len(series.Raw), series.Ripple)
			experiments.WriteEnvelopes(os.Stdout, experiments.EnvelopeAblation())
			return nil
		})
	}
	if want("fig6a") {
		run("Fig. 6 (left) — flicker vs color brightness", func() error {
			rows, err := experiments.FlickerVsBrightness(s)
			if err != nil {
				return err
			}
			experiments.WriteFlicker(os.Stdout, rows)
			return nil
		})
	}
	if want("fig6b") {
		run("Fig. 6 (right) — flicker vs waveform amplitude", func() error {
			rows, err := experiments.FlickerVsAmplitude(s)
			if err != nil {
				return err
			}
			experiments.WriteFlicker(os.Stdout, rows)
			return nil
		})
	}
	if want("fig7") {
		run("Fig. 7 — secondary channel throughput", func() error {
			rows, err := experiments.Throughput(s)
			if err != nil {
				return err
			}
			experiments.WriteThroughput(os.Stdout, rows)
			return nil
		})
	}
	if want("ablations") {
		run("A2 — Pixel pitch vs phantom array", func() error {
			rows, err := experiments.PixelSizeAblation(s)
			if err != nil {
				return err
			}
			experiments.WritePixelSizes(os.Stdout, rows)
			return nil
		})
		run("A3 — confidence band sweep (availability vs errors)", func() error {
			rows, err := experiments.ThresholdSweep(s)
			if err != nil {
				return err
			}
			experiments.WriteBands(os.Stdout, rows)
			return nil
		})
		run("A4 — shutter regimes", func() error {
			rows, err := experiments.ShutterAblation(s)
			if err != nil {
				return err
			}
			experiments.WriteShutter(os.Stdout, rows)
			return nil
		})
		run("A5 — GOB protection: XOR parity vs Reed-Solomon", func() error {
			rows, err := experiments.CodingAblation(s)
			if err != nil {
				return err
			}
			experiments.WriteCoding(os.Stdout, rows)
			return nil
		})
		run("A6 — sensor noise sweep", func() error {
			rows, err := experiments.NoiseSweep(s)
			if err != nil {
				return err
			}
			experiments.WriteNoise(os.Stdout, rows)
			return nil
		})
		run("A7 — detector comparison", func() error {
			rows, err := experiments.DetectorAblation(s)
			if err != nil {
				return err
			}
			experiments.WriteDetectors(os.Stdout, rows)
			return nil
		})
		run("A8 — blind frame synchronization", func() error {
			rows, err := experiments.SyncAccuracy(s)
			if err != nil {
				return err
			}
			experiments.WriteSync(os.Stdout, rows)
			return nil
		})
		run("A9 — barcode baseline comparison", func() error {
			rows, err := experiments.BarcodeComparison(s)
			if err != nil {
				return err
			}
			experiments.WriteBaseline(os.Stdout, rows)
			return nil
		})
		run("A10 — blind camera registration", func() error {
			rows, err := experiments.Registration(s)
			if err != nil {
				return err
			}
			experiments.WriteRegistration(os.Stdout, rows)
			return nil
		})
		run("A11 — batch vs streaming receiver", func() error {
			rows, err := experiments.Streaming(s)
			if err != nil {
				return err
			}
			experiments.WriteStreaming(os.Stdout, rows)
			return nil
		})
		run("A12 — display pixel response (gray-to-gray)", func() error {
			rows, err := experiments.ResponseAblation(s)
			if err != nil {
				return err
			}
			experiments.WriteResponse(os.Stdout, rows)
			return nil
		})
		run("A13 — rate vs perceptibility trade-off (§5)", func() error {
			rows, err := experiments.Tradeoff(s)
			if err != nil {
				return err
			}
			experiments.WriteTradeoff(os.Stdout, rows)
			return nil
		})
	}
	if want("robustness") {
		run("Robustness — impairment sweep with graceful degradation", func() error {
			rows, err := experiments.Robustness(s)
			if err != nil {
				return err
			}
			experiments.WriteRobustness(os.Stdout, rows)
			return nil
		})
	}
	if want("pose") {
		run("Pose — availability vs camera tilt, rigid vs registered receiver", func() error {
			rows, err := experiments.Pose(s)
			if err != nil {
				return err
			}
			experiments.WritePose(os.Stdout, rows)
			return nil
		})
	}
	if want("fleet") {
		run("Fleet — one rendered stream, N-receiver broadcast population", func() error {
			start := time.Now()
			res, err := experiments.Fleet(s, *fleetN)
			if err != nil {
				return err
			}
			elapsed := time.Since(start).Seconds()
			experiments.WriteFleet(os.Stdout, res)
			fmt.Printf("receivers/sec: %.2f (N=%d in %.1fs, render included)\n",
				float64(res.N)/elapsed, res.N, elapsed)
			return nil
		})
	}
	if !matched {
		fatal(fmt.Errorf("unknown experiment %q (use all, fig3, fig5, fig6a, fig6b, fig7, ablations, robustness, pose, fleet or speedup)", *exp))
	}
}

// speedupReport times the end-to-end pipeline (render → display → camera →
// decode) at workers=1 and workers=GOMAXPROCS on the scaled paper geometry
// and prints the ratio, cross-checking that both runs were bit-identical.
func speedupReport(w *os.File, scale int, seconds float64) error {
	l, err := core.ScaledPaperLayout(scale)
	if err != nil {
		return err
	}
	nDisplay := int(seconds * 120)
	var renderStats core.RenderStats
	runOnce := func(workers int) (*channel.Result, []*core.FrameDecode, time.Duration, error) {
		p := core.DefaultParams(l)
		p.Workers = workers
		m, err := core.NewMultiplexer(p, video.Gray(l.FrameW, l.FrameH), core.NewRandomStream(l, 1))
		if err != nil {
			return nil, nil, 0, err
		}
		cfg := channel.DefaultConfig(1280/scale, 720/scale)
		cfg.Workers = workers
		cfg.Camera.Workers = workers
		rcfg := core.DefaultReceiverConfig(p, 1280/scale, 720/scale)
		rcfg.Exposure = cfg.Camera.Exposure
		rcfg.ReadoutTime = cfg.Camera.ReadoutTime
		rcfg.Workers = workers
		rcv, err := core.NewReceiver(rcfg)
		if err != nil {
			return nil, nil, 0, err
		}
		start := time.Now()
		res, err := channel.Simulate(m, nDisplay, cfg)
		if err != nil {
			return nil, nil, 0, err
		}
		dec := rcv.DecodeCaptures(res.Captures, res.Times, res.Exposure, nDisplay/p.Tau)
		// RenderStats is deterministic at any worker count, so keeping the
		// last run's snapshot reports both runs at once.
		renderStats = m.RenderStats()
		return res, dec, time.Since(start), nil
	}

	maxW := runtime.GOMAXPROCS(0)
	fmt.Fprintf(w, "=== sequential vs parallel pipeline (scale 1/%d, %d display frames, %d cores) ===\n",
		scale, nDisplay, maxW)
	seqRes, seqDec, seqDur, err := runOnce(1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workers=1:  %8.2fs\n", seqDur.Seconds())
	parRes, parDec, parDur, err := runOnce(maxW)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workers=%d:  %8.2fs\n", maxW, parDur.Seconds())
	fmt.Fprintf(w, "speedup: %.2fx\n", seqDur.Seconds()/parDur.Seconds())
	fmt.Fprintf(w, "render: blocks=%d skipped=%d (skip-rate %.3f) headroom-skipped=%d/%d video-skipped=%d/%d\n",
		renderStats.Blocks, renderStats.BlocksSkipped, renderStats.SkipRate(),
		renderStats.HeadroomSkipped, renderStats.HeadroomBlocks+renderStats.HeadroomSkipped,
		renderStats.VideoSkipped, renderStats.VideoRefreshes+renderStats.VideoSkipped)
	// The display's counts are kept off RenderStats: they are properties of
	// the push path, not of the renderer. The held high-water is the
	// workers=1 run's: past one worker it depends on the order captures
	// complete in, so it is reported but never compared.
	fmt.Fprintf(w, "display: stored %d of %d drive frames shown (%d repeated by reference), at most %d held at once\n",
		parRes.StoredFrames, nDisplay, nDisplay-parRes.StoredFrames, seqRes.PeakHeldFrames)

	if len(seqRes.Captures) != len(parRes.Captures) || len(seqDec) != len(parDec) ||
		seqRes.StoredFrames != parRes.StoredFrames {
		return fmt.Errorf("sequential and parallel runs diverged in shape")
	}
	for i := range seqRes.Captures {
		a, b := seqRes.Captures[i].Pix, parRes.Captures[i].Pix
		for j := range a {
			//lint:ignore floateq the contract under test is bit-identity, so the comparison must be exact
			if a[j] != b[j] {
				return fmt.Errorf("capture %d diverges at pixel %d", i, j)
			}
		}
	}
	for i := range seqDec {
		if !seqDec[i].Bits.Equal(parDec[i].Bits) {
			return fmt.Errorf("decoded frame %d diverges", i)
		}
	}
	fmt.Fprintln(w, "outputs bit-identical: yes")
	return nil
}

// --- -json baseline ---

// writeBaseline measures EndToEnd (render + channel + decode) and
// DecodeCaptures (receive side only) at workers=1 and GOMAXPROCS — via
// internal/benchcmp, the same measurement inframe-benchdiff performs — and
// writes the results as JSON to path.
func writeBaseline(path string, scale int) error {
	base, err := benchcmp.Measure(scale)
	if err != nil {
		return err
	}
	if err := base.Write(path); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "inframe-bench:", err)
	os.Exit(1)
}
