package channel

import (
	"fmt"
	"math"
	"testing"

	"inframe/internal/core"
	"inframe/internal/impair"
	"inframe/internal/video"
)

// TestSimulateMatchesFullHistory: Simulate retires the drive history behind
// its capture schedule's horizon, yet every capture and time is bit-identical
// to capturing a display that kept its whole history — at any worker count,
// on clean and impaired links (jitter that reorders exposure starts, drops,
// duplicates, clock drift) and on every display model.
func TestSimulateMatchesFullHistory(t *testing.T) {
	links := map[string]*impair.Config{
		"clean":          nil,
		"jitter-dropdup": {StartJitter: 0.02, DropRate: 0.2, DupRate: 0.2, Seed: 3},
		"drift":          {ClockDriftPPM: 4000, Seed: 5},
	}
	displays := map[string]func(*Config){
		"ideal":    func(c *Config) { c.Display.ResponseTime = 0 },
		"response": func(c *Config) { c.Display.ResponseTime = 0.002 },
		"strobe":   func(c *Config) { c.Display.ResponseTime = 0; c.Display.StrobeDuty = 0.25 },
	}
	p := testParams()
	const n = 150
	newMux := func() *core.Multiplexer {
		m, err := core.NewMultiplexer(p, video.NewSunRise(48, 32, 2), core.NewRandomStream(p.Layout, 7))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for lname, imp := range links {
		for dname, setDisplay := range displays {
			cfg := quietChannel(48, 32)
			cfg.Camera.ReadoutTime = 0.008
			cfg.Impair = imp
			setDisplay(&cfg)
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := newMux().PushTo(ref.Display, n); err != nil {
				t.Fatal(err)
			}
			wantCaps, wantTimes := Capture(ref.Display, ref.Camera, cfg.CameraStart, cfg.Impair, 1)
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", lname, dname, workers), func(t *testing.T) {
					cfg := cfg
					cfg.Workers = workers
					res, err := Simulate(newMux(), n, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Captures) != len(wantCaps) || len(res.Times) != len(wantTimes) {
						t.Fatalf("%d captures, want %d", len(res.Captures), len(wantCaps))
					}
					for i, c := range res.Captures {
						if math.Float64bits(res.Times[i]) != math.Float64bits(wantTimes[i]) {
							t.Fatalf("capture %d time %v, want %v", i, res.Times[i], wantTimes[i])
						}
						for j, v := range c.Pix {
							if math.Float32bits(v) != math.Float32bits(wantCaps[i].Pix[j]) {
								t.Fatalf("capture %d pixel %d: %v, want %v", i, j, v, wantCaps[i].Pix[j])
							}
						}
					}
					if res.StoredFrames != ref.Display.StoredFrames() {
						t.Fatalf("stored %d drive frames, full history %d", res.StoredFrames, ref.Display.StoredFrames())
					}
					// Past one worker, how much is retired depends on when
					// the captures complete; the bound is pinned at one.
					if workers == 1 && res.PeakHeldFrames >= res.StoredFrames {
						t.Fatalf("held up to %d of %d stored frames: nothing was retired", res.PeakHeldFrames, res.StoredFrames)
					}
				})
			}
		}
	}
}

// TestSimulateHeldFramesBounded: at Workers=1 the drive frames held at once
// follow the capture window, not the run length — a 6 s run peaks exactly
// where a 2 s run does.
func TestSimulateHeldFramesBounded(t *testing.T) {
	p := testParams()
	peak := func(seconds float64) *Result {
		m, err := core.NewMultiplexer(p, video.NewSunRise(48, 32, 2), core.NewRandomStream(p.Layout, 7))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(48, 32)
		cfg.Workers = 1
		res, err := Simulate(m, int(seconds*cfg.Display.RefreshHz), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	short, long := peak(2), peak(6)
	t.Logf("peak held %d (2 s, %d stored), %d (6 s, %d stored)", short.PeakHeldFrames, short.StoredFrames, long.PeakHeldFrames, long.StoredFrames)
	if short.PeakHeldFrames > 6 {
		t.Fatalf("2 s run held up to %d drive frames at once, want at most 6", short.PeakHeldFrames)
	}
	if long.PeakHeldFrames != short.PeakHeldFrames {
		t.Fatalf("6 s run held up to %d drive frames, 2 s run %d: the bound grows with run length",
			long.PeakHeldFrames, short.PeakHeldFrames)
	}
	if long.StoredFrames <= 3*short.PeakHeldFrames {
		t.Fatalf("6 s run stored only %d frames", long.StoredFrames)
	}
}
