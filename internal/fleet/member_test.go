package fleet

import (
	"reflect"
	"testing"

	"inframe/internal/channel"
	"inframe/internal/core"
	"inframe/internal/display"
	"inframe/internal/frame"
	"inframe/internal/impair"
	"inframe/internal/video"
)

// TestMemberMatchesStandaloneSimulate is the fleet's identity contract: a
// member captured from the shared render decodes bit-identically — capture
// pixels, times, decoded frames and decode report — to a standalone
// channel.Simulate built from the same ReceiverSpec, because both run the
// link's one capture schedule. The member runs on a two-worker share, the
// standalone link on one, so the check also spans worker counts.
func TestMemberMatchesStandaloneSimulate(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline runs; the verify.sh fleet stage covers them")
	}
	l := core.Layout{
		FrameW: 192, FrameH: 128,
		PixelSize: 2, BlockSize: 4, GOBSize: 2,
		BlocksX: 24, BlocksY: 16,
	}
	cases := []struct {
		name  string
		start float64
		imp   *impair.Config // nil: a clean member
	}{
		{"clean", 0.02, nil},
		{"jitter+drop+dup", 0.02, &impair.Config{StartJitter: 2e-4, DropRate: 0.3, DupRate: 0.3}},
		{"late start", 5, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(l, l.FrameW, l.FrameH, 1, 5)
			cfg.Params.Tau = 8
			cfg.Seconds = 0.8
			cfg.Pop.StartMin, cfg.Pop.StartMax = tc.start, tc.start
			cfg.Pop.CleanFrac = 1
			if tc.imp != nil {
				cfg.Pop.CleanFrac = 0
				cfg.Pop.Profiles = []impair.Config{*tc.imp}
			}
			nDisplay := int(cfg.Seconds * cfg.Display.RefreshHz)
			nData := nDisplay / cfg.Params.Tau
			render := func() *core.Multiplexer {
				m, err := core.NewMultiplexer(cfg.Params, video.Gray(l.FrameW, l.FrameH),
					core.NewRandomStream(l, cfg.StreamSeed))
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			decode := func(rcfg core.ReceiverConfig, caps []*frame.Frame, times []float64, exposure float64) ([]*core.FrameDecode, core.DecodeReport) {
				rcfg.Workers = 1
				rcv, err := core.NewReceiver(rcfg)
				if err != nil {
					t.Fatal(err)
				}
				dec, rep := rcv.DecodeCapturesReport(caps, times, exposure, nData)
				return dec, *rep
			}

			// The fleet member: render once, then capture from the display.
			pool := frame.NewPool()
			d, err := display.New(cfg.Display)
			if err != nil {
				t.Fatal(err)
			}
			if err := render().PushTo(d, nDisplay); err != nil {
				t.Fatal(err)
			}
			spec, caps, times, err := cfg.capture(0, d, pool, 2)
			if err != nil {
				t.Fatal(err)
			}
			if (spec.Impair != nil) != (tc.imp != nil) {
				t.Fatalf("sampled spec impairment %+v, want %+v", spec.Impair, tc.imp)
			}
			dec, rep := decode(cfg.receiverConfig(spec, pool), caps, times, spec.Camera.Exposure)

			// The standalone link built from the same spec.
			ccfg := channel.Config{
				Display:     cfg.Display,
				Camera:      spec.Camera,
				CameraStart: spec.Start,
				Impair:      spec.Impair,
				Workers:     1,
			}
			ccfg.Camera.Pool = nil
			res, err := channel.Simulate(render(), nDisplay, ccfg)
			if tc.start > cfg.Seconds {
				// No room for a capture: the standalone link refuses, the
				// member decodes an empty sequence.
				if err == nil || len(caps) != 0 {
					t.Fatalf("late start: Simulate err %v, member captures %d; want an error and none", err, len(caps))
				}
				res = &channel.Result{}
			} else if err != nil {
				t.Fatal(err)
			}
			if len(res.Captures) != len(caps) || !reflect.DeepEqual(res.Times, times) {
				t.Fatalf("member took %d captures at %v, standalone %d at %v", len(caps), times, len(res.Captures), res.Times)
			}
			for i, c := range res.Captures {
				if !c.Equal(caps[i]) {
					t.Fatalf("capture %d differs between member and standalone link", i)
				}
			}
			wantDec, wantRep := decode(cfg.receiverConfig(spec, nil), res.Captures, res.Times, res.Exposure)
			if !reflect.DeepEqual(dec, wantDec) || !reflect.DeepEqual(rep, wantRep) {
				t.Fatal("member decode differs from the standalone decode")
			}
			if tc.imp != nil {
				// The case must exercise both delivery stages: a duplicate
				// repeats its original's pixels, a drop leaves the sequence
				// short of the plan.
				dups := 0
				for i := 1; i < len(caps); i++ {
					if caps[i].Equal(caps[i-1]) {
						dups++
					}
				}
				planned := int((d.Duration() - spec.Start - spec.Camera.Exposure - spec.Camera.ReadoutTime - tc.imp.StartJitter) * spec.Camera.FPS)
				if drops := planned - (len(caps) - dups); dups == 0 || drops <= 0 {
					t.Fatalf("impaired member saw %d duplicates and %d drops; the case must exercise both", dups, drops)
				}
			}
		})
	}
}
