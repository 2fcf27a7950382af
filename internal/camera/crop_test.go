package camera

import (
	"math"
	"testing"

	"inframe/internal/display"
	"inframe/internal/frame"
)

func TestCropValidation(t *testing.T) {
	cfg := DefaultConfig(32, 32)
	cfg.CropX0, cfg.CropY0 = -8, -8 // overscan is legal
	cfg.CropW, cfg.CropH = 48, 48
	if err := cfg.Validate(); err != nil {
		t.Fatalf("overscan rejected: %v", err)
	}
	cfg = DefaultConfig(32, 32)
	cfg.CropW = 10 // height missing
	if err := cfg.Validate(); err == nil {
		t.Fatal("half-specified crop accepted")
	}
}

// TestOverscanPadsBlack: a window larger than the display sees the display
// centered on black.
func TestOverscanPadsBlack(t *testing.T) {
	dcfg := display.DefaultConfig()
	dcfg.ResponseTime = 0
	dcfg.Gamma = 1
	d, err := display.New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Push(frame.NewFilled(32, 32, 200)); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(48, 48)
	cfg.ReadoutTime = 0
	cfg.NoiseSigma = 0
	cfg.BlurRadius = 0
	cfg.Gamma = 1
	cfg.CropX0, cfg.CropY0, cfg.CropW, cfg.CropH = -8, -8, 48, 48
	cam, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cap := cam.Capture(d, 0.001, 0)
	if v := cap.At(2, 2); v != 0 {
		t.Fatalf("border pixel = %v, want black", v)
	}
	if v := float64(cap.At(24, 24)); math.Abs(v-200) > 2 {
		t.Fatalf("display center = %v, want ~200", v)
	}
}

// TestCropFramesWindow: a camera cropped to the display's bright quadrant
// sees only that content, scaled onto the full sensor.
func TestCropFramesWindow(t *testing.T) {
	dcfg := display.DefaultConfig()
	dcfg.ResponseTime = 0
	dcfg.Gamma = 1
	d, err := display.New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	f := frame.New(64, 64)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			f.Set(x, y, 200) // bright top-left quadrant
		}
	}
	if err := d.Push(f); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(32, 32)
	cfg.ReadoutTime = 0
	cfg.NoiseSigma = 0
	cfg.BlurRadius = 0
	cfg.Gamma = 1
	cfg.CropX0, cfg.CropY0, cfg.CropW, cfg.CropH = 0, 0, 32, 32
	cam, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cap := cam.Capture(d, 0.001, 0)
	if cap.W != 32 || cap.H != 32 {
		t.Fatalf("capture %dx%d", cap.W, cap.H)
	}
	// Whole sensor sees the bright quadrant.
	if m := cap.Mean(); math.Abs(m-200) > 2 {
		t.Fatalf("cropped capture mean %.1f, want ~200", m)
	}
	// Uncropped camera sees the mixed scene (~50 mean).
	cfg2 := cfg
	cfg2.CropW, cfg2.CropH = 0, 0
	cam2, _ := New(cfg2)
	full := cam2.Capture(d, 0.001, 0)
	if m := full.Mean(); math.Abs(m-50) > 3 {
		t.Fatalf("full capture mean %.1f, want ~50", m)
	}
}

// TestCropRollingShutterFollowsWindow: a display that switches frames
// mid-readout lands the switch on the sensor row the timing says, whatever
// the crop window. Display row y exposes as sensor row (y−CropY0)·H/CropH,
// so sensor row s sees the new frame exactly when s reaches the switch row
// — for an overscan window and for a zoomed one offset off-center, where
// mapping y by the panel height instead would land it 4 sensor rows off.
func TestCropRollingShutterFollowsWindow(t *testing.T) {
	dcfg := display.DefaultConfig()
	dcfg.ResponseTime = 0
	dcfg.Gamma = 1
	const dark, bright = 40, 200
	for _, c := range []struct {
		name       string
		x0, y0     int // crop origin
		cw, ch     int // crop size
		w, h       int // sensor size
		switchRow  int
		firstInRow int // first sensor row wholly on the display
		lastInRow  int // last sensor row wholly on the display
	}{
		{"overscan", -32, -32, 128, 128, 64, 64, 24, 16, 47},
		{"zoom", 0, 8, 64, 32, 32, 16, 8, 0, 15},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, err := display.New(dcfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []float32{dark, bright} {
				if err := d.Push(frame.NewFilled(64, 64, v)); err != nil {
					t.Fatal(err)
				}
			}
			cfg := DefaultConfig(c.w, c.h)
			cfg.NoiseSigma = 0
			cfg.BlurRadius = 0
			cfg.Gamma = 1
			cfg.Exposure = 1e-5
			cfg.CropX0, cfg.CropY0, cfg.CropW, cfg.CropH = c.x0, c.y0, c.cw, c.ch
			cam, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Sensor row s starts exposing half a row period after the
			// switch when s = switchRow and ends before it when s is one
			// less.
			rowDt := cfg.ReadoutTime / float64(c.h)
			t0 := d.FrameDuration() - (float64(c.switchRow)-0.5)*rowDt
			capt := cam.Capture(d, t0, 0)
			for s := c.firstInRow; s <= c.lastInRow; s++ {
				want := float64(dark)
				if s >= c.switchRow {
					want = bright
				}
				var sum float64
				for x := 0; x < c.w; x++ {
					if c.x0 < 0 && (x < c.w/4 || x >= 3*c.w/4) {
						continue // overscan columns: black
					}
					sum += float64(capt.At(x, s))
				}
				n := float64(c.w)
				if c.x0 < 0 {
					n = float64(c.w / 2)
				}
				if m := sum / n; math.Abs(m-want) > 1 {
					t.Fatalf("sensor row %d reads %.1f, want %v (switch at row %d)", s, m, want, c.switchRow)
				}
			}
		})
	}
}
