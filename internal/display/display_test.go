package display

import (
	"math"
	"testing"

	"inframe/internal/frame"
)

func mustNew(t *testing.T, cfg Config) *Display {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func idealConfig() Config {
	c := DefaultConfig()
	c.ResponseTime = 0
	c.Gamma = 1
	return c
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{RefreshHz: 0, Brightness: 1, Gamma: 2.2},
		{RefreshHz: 120, Brightness: 0, Gamma: 2.2},
		{RefreshHz: 120, Brightness: 1.5, Gamma: 2.2},
		{RefreshHz: 120, Brightness: 1, Gamma: 0},
		{RefreshHz: 120, Brightness: 1, Gamma: 2.2, ResponseTime: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("New accepted bad config %d", i)
		}
	}
}

func TestPushSizeEnforcement(t *testing.T) {
	d := mustNew(t, idealConfig())
	if err := d.Push(frame.NewFilled(8, 4, 100)); err != nil {
		t.Fatal(err)
	}
	if err := d.Push(frame.NewFilled(4, 4, 100)); err == nil {
		t.Fatal("Push accepted mismatched frame size")
	}
	if w, h := d.Size(); w != 8 || h != 4 {
		t.Fatalf("Size = %dx%d, want 8x4", w, h)
	}
}

func TestDurationAccounting(t *testing.T) {
	d := mustNew(t, idealConfig())
	for i := 0; i < 12; i++ {
		if err := d.Push(frame.NewFilled(4, 4, 50)); err != nil {
			t.Fatal(err)
		}
	}
	if d.NumFrames() != 12 {
		t.Fatalf("NumFrames = %d", d.NumFrames())
	}
	if math.Abs(d.Duration()-0.1) > 1e-12 {
		t.Fatalf("Duration = %v, want 0.1", d.Duration())
	}
	if math.Abs(d.FrameDuration()-1.0/120) > 1e-15 {
		t.Fatalf("FrameDuration = %v", d.FrameDuration())
	}
}

func TestGammaMapsDriveToLuminance(t *testing.T) {
	cfg := idealConfig()
	cfg.Gamma = 2.2
	d := mustNew(t, cfg)
	if err := d.Push(frame.NewFilled(2, 2, 127)); err != nil {
		t.Fatal(err)
	}
	want := 255 * math.Pow(127.0/255, 2.2)
	got := float64(d.Luminance(0).At(0, 0))
	if math.Abs(got-want) > 1e-3 {
		t.Fatalf("luminance = %v, want %v", got, want)
	}
	// Drive 255 → peak.
	d2 := mustNew(t, cfg)
	d2.Push(frame.NewFilled(1, 1, 255))
	if v := d2.Luminance(0).At(0, 0); math.Abs(float64(v)-255) > 1e-3 {
		t.Fatalf("peak luminance = %v, want 255", v)
	}
}

func TestBrightnessScales(t *testing.T) {
	cfg := idealConfig()
	cfg.Brightness = 0.5
	d := mustNew(t, cfg)
	d.Push(frame.NewFilled(1, 1, 255))
	if v := d.Luminance(0).At(0, 0); math.Abs(float64(v)-127.5) > 1e-3 {
		t.Fatalf("half-brightness peak = %v, want 127.5", v)
	}
}

// TestPushClampsAndQuantizes: Push stores the rounded, saturated drive
// byte of every pixel, half-way, out-of-range and non-finite values
// included — the quantization Push has always applied (round half away
// from zero, saturate to [0,255], NaN dark).
func TestPushClampsAndQuantizes(t *testing.T) {
	vals := []float32{
		-40, 300, 99.7, -1e9, -0.6, -0.5, -0, 1e-40, 0.49999997, 0.5, 1.5,
		2.5, 127.5, 128.49998, 254.49998, 254.5, 255.4, 255.5,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	}
	d := mustNew(t, idealConfig())
	f := frame.New(len(vals), 1)
	copy(f.Pix, vals)
	d.Push(f)
	l := d.Luminance(0)
	for i, v := range vals {
		want := math.Round(float64(v))
		switch {
		case !(want > 0):
			want = 0
		case want > 255:
			want = 255
		}
		if l.Pix[i] != float32(want) {
			t.Fatalf("clamp/quantize of %v: got %v, want %v", v, l.Pix[i], want)
		}
	}
}

func TestWindowAverageSingleFrame(t *testing.T) {
	d := mustNew(t, idealConfig())
	d.Push(frame.NewFilled(4, 4, 80))
	avg := d.WindowAverage(0, d.FrameDuration())
	if math.Abs(float64(avg.At(2, 2))-80) > 1e-4 {
		t.Fatalf("single-frame average = %v, want 80", avg.At(2, 2))
	}
}

func TestWindowAverageSpansFrames(t *testing.T) {
	d := mustNew(t, idealConfig())
	d.Push(frame.NewFilled(2, 2, 100))
	d.Push(frame.NewFilled(2, 2, 200))
	T := d.FrameDuration()
	avg := d.WindowAverage(0, 2*T)
	if math.Abs(float64(avg.At(0, 0))-150) > 1e-4 {
		t.Fatalf("two-frame average = %v, want 150", avg.At(0, 0))
	}
	// 75/25 split.
	avg2 := d.WindowAverage(0.5*T, T+0.5*T+1e-12)
	if math.Abs(float64(avg2.At(0, 0))-150) > 1e-3 {
		t.Fatalf("half-offset average = %v, want 150", avg2.At(0, 0))
	}
	avg3 := d.WindowAverage(0, 0.5*T)
	if math.Abs(float64(avg3.At(0, 0))-100) > 1e-4 {
		t.Fatalf("first-half average = %v, want 100", avg3.At(0, 0))
	}
}

func TestWindowAverageHoldsBeyondEnds(t *testing.T) {
	d := mustNew(t, idealConfig())
	d.Push(frame.NewFilled(2, 2, 60))
	T := d.FrameDuration()
	before := d.WindowAverage(-5*T, -4*T)
	if math.Abs(float64(before.At(0, 0))-60) > 1e-4 {
		t.Fatalf("pre-start hold = %v, want 60", before.At(0, 0))
	}
	after := d.WindowAverage(10*T, 12*T)
	if math.Abs(float64(after.At(1, 1))-60) > 1e-4 {
		t.Fatalf("post-end hold = %v, want 60", after.At(1, 1))
	}
}

// TestComplementaryFusionOnDisplay: the core InFrame property end-to-end at
// the display level — with gamma=1, averaging V+D and V−D over one pair
// window recovers V exactly.
func TestComplementaryFusionOnDisplay(t *testing.T) {
	d := mustNew(t, idealConfig())
	v := frame.NewFilled(4, 4, 127)
	chess := frame.New(4, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if (x+y)%2 == 1 {
				chess.Set(x, y, 20)
			}
		}
	}
	plus := v.Clone()
	plus.Add(chess)
	minus := v.Clone()
	minus.Sub(chess)
	d.Push(plus)
	d.Push(minus)
	avg := d.WindowAverage(0, 2*d.FrameDuration())
	for i, p := range avg.Pix {
		if math.Abs(float64(p)-127) > 1e-3 {
			t.Fatalf("fused pixel %d = %v, want 127", i, p)
		}
	}
}

func TestResponseSmearsTransition(t *testing.T) {
	cfg := idealConfig()
	cfg.ResponseTime = 0.004
	d := mustNew(t, cfg)
	d.Push(frame.NewFilled(2, 2, 0))
	d.Push(frame.NewFilled(2, 2, 200))
	T := d.FrameDuration()
	// During the second interval, the pixel is still rising: its mean must
	// be strictly between 0 and 200, and below an ideal display's 200.
	avg := d.WindowAverage(T, 2*T)
	v := float64(avg.At(0, 0))
	if v <= 0 || v >= 200 {
		t.Fatalf("smeared average = %v, want within (0,200)", v)
	}
	// With a long settling run the state converges to the target.
	for i := 0; i < 40; i++ {
		d.Push(frame.NewFilled(2, 2, 200))
	}
	late := d.WindowAverage(40*T, 41*T)
	if math.Abs(float64(late.At(0, 0))-200) > 0.5 {
		t.Fatalf("settled average = %v, want ~200", late.At(0, 0))
	}
}

func TestResponseConservesPairMean(t *testing.T) {
	// Complementary alternation through a symmetric exponential response
	// still fuses to the video level once the alternation reaches steady
	// state (the response delays but does not bias the mean).
	cfg := idealConfig()
	cfg.ResponseTime = 0.003
	d := mustNew(t, cfg)
	for i := 0; i < 40; i++ {
		lv := float32(107)
		if i%2 == 0 {
			lv = 147
		}
		d.Push(frame.NewFilled(2, 2, lv))
	}
	T := d.FrameDuration()
	avg := d.WindowAverage(20*T, 22*T)
	if math.Abs(float64(avg.At(0, 0))-127) > 0.5 {
		t.Fatalf("steady alternation mean = %v, want ~127", avg.At(0, 0))
	}
}

func TestPixelWaveform(t *testing.T) {
	d := mustNew(t, idealConfig())
	d.Push(frame.NewFilled(2, 2, 100))
	d.Push(frame.NewFilled(2, 2, 200))
	T := d.FrameDuration()
	wf := d.PixelWaveform(0, 0, 0, 2*T, 4)
	if len(wf) != 4 {
		t.Fatalf("len = %d", len(wf))
	}
	if math.Abs(wf[0]-100) > 1e-3 || math.Abs(wf[3]-200) > 1e-3 {
		t.Fatalf("waveform = %v", wf)
	}
}

func TestEncodeLuminanceInverse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResponseTime = 0
	d := mustNew(t, cfg)
	d.Push(frame.NewFilled(1, 1, 180))
	l := float64(d.Luminance(0).At(0, 0))
	if got := d.EncodeLuminance(l); math.Abs(got-180) > 1e-3 {
		t.Fatalf("EncodeLuminance round trip = %v, want 180", got)
	}
	if d.EncodeLuminance(-4) != 0 {
		t.Fatal("negative luminance should encode to 0")
	}
	if d.EncodeLuminance(1e6) != 255 {
		t.Fatal("huge luminance should clamp to 255")
	}
}

func TestRowAveragePanics(t *testing.T) {
	d := mustNew(t, idealConfig())
	d.Push(frame.NewFilled(2, 2, 1))
	row := make([]float32, 2)
	for name, fn := range map[string]func(){
		"empty window": func() { d.RowAverage(0, 1, 1, row) },
		"bad row":      func() { d.RowAverage(5, 0, 0.01, row) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestLuminanceBeforePushPanics(t *testing.T) {
	d := mustNew(t, idealConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("Luminance before Push did not panic")
		}
	}()
	d.Luminance(0)
}

func TestStrobeValidate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StrobeDuty = 1.5
	if err := cfg.Validate(); err == nil {
		t.Fatal("StrobeDuty > 1 accepted")
	}
	cfg.StrobeDuty = -0.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative StrobeDuty accepted")
	}
}

// TestStrobePreservesMeanLuminance: the 1/duty boost keeps the full-frame
// average identical to a continuous backlight.
func TestStrobePreservesMeanLuminance(t *testing.T) {
	cfg := idealConfig()
	cfg.StrobeDuty = 0.25
	d := mustNew(t, cfg)
	for i := 0; i < 4; i++ {
		d.Push(frame.NewFilled(4, 4, 100))
	}
	avg := d.WindowAverage(0, 4*d.FrameDuration())
	if math.Abs(float64(avg.At(2, 2))-100) > 1e-3 {
		t.Fatalf("strobed mean %v, want 100", avg.At(2, 2))
	}
}

// TestStrobeConcentratesLight: a window covering only the dark part of the
// interval sees nothing; the strobe slot sees the boosted level.
func TestStrobeConcentratesLight(t *testing.T) {
	cfg := idealConfig()
	cfg.StrobeDuty = 0.25
	d := mustNew(t, cfg)
	d.Push(frame.NewFilled(2, 2, 80))
	T := d.FrameDuration()
	dark := d.WindowAverage(0, 0.5*T)
	if dark.At(0, 0) != 0 {
		t.Fatalf("dark phase luminance %v, want 0", dark.At(0, 0))
	}
	lit := d.WindowAverage(0.75*T, T)
	if math.Abs(float64(lit.At(0, 0))-4*80) > 1e-3 {
		t.Fatalf("strobe slot luminance %v, want %v", lit.At(0, 0), 4*80)
	}
}

// TestStrobeComplementaryPairStillFuses: strobing does not bias the pair
// average, so the viewer still sees V.
func TestStrobeComplementaryPairStillFuses(t *testing.T) {
	cfg := idealConfig()
	cfg.StrobeDuty = 0.3
	d := mustNew(t, cfg)
	d.Push(frame.NewFilled(2, 2, 147))
	d.Push(frame.NewFilled(2, 2, 107))
	avg := d.WindowAverage(0, 2*d.FrameDuration())
	if math.Abs(float64(avg.At(1, 1))-127) > 1e-3 {
		t.Fatalf("strobed pair fuses to %v, want 127", avg.At(1, 1))
	}
}

func TestRepeatOutOfRange(t *testing.T) {
	d := mustNew(t, idealConfig())
	if err := d.Repeat(1); err == nil {
		t.Fatal("Repeat on an empty display succeeded")
	}
	for i := 0; i < 2; i++ {
		if err := d.Push(frame.NewFilled(4, 2, 50)); err != nil {
			t.Fatal(err)
		}
	}
	for _, back := range []int{-1, 0, 3} {
		if err := d.Repeat(back); err == nil {
			t.Errorf("Repeat(%d) with 2 frames pushed succeeded", back)
		}
	}
	if d.NumFrames() != 2 || d.StoredFrames() != 2 {
		t.Fatalf("rejected repeats changed the history: %d shown, %d stored", d.NumFrames(), d.StoredFrames())
	}
}

// TestRepeatMatchesPushedCopy: repeating an earlier frame lights the panel
// exactly as pushing a copy of it would, through the response-state chain
// and through the strobed backlight.
func TestRepeatMatchesPushedCopy(t *testing.T) {
	strobe := DefaultConfig()
	strobe.StrobeDuty = 0.25
	a := frame.NewFilled(6, 3, 40)
	b := frame.NewFilled(6, 3, 210)
	b.Set(2, 1, 0)
	seq := []*frame.Frame{a, b, a, b, b, a}
	backs := []int{0, 0, 2, 2, 1, 3} // 0 = push; repeats reproduce seq
	for name, cfg := range map[string]Config{"response": DefaultConfig(), "strobe": strobe} {
		t.Run(name, func(t *testing.T) {
			rep, cp := mustNew(t, cfg), mustNew(t, cfg)
			for i, f := range seq {
				if err := cp.Push(f); err != nil {
					t.Fatal(err)
				}
				var err error
				if backs[i] == 0 {
					err = rep.Push(f)
				} else {
					err = rep.Repeat(backs[i])
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			T := rep.FrameDuration()
			got, want := make([]float32, 6), make([]float32, 6)
			for _, win := range [][2]float64{{0, T}, {0.3 * T, 2.6 * T}, {1.9 * T, 5.2 * T}, {-T, 7 * T}, {4.5 * T, 4.9 * T}} {
				for y := 0; y < 3; y++ {
					rep.RowAverage(y, win[0], win[1], got)
					cp.RowAverage(y, win[0], win[1], want)
					for x := range want {
						if math.Float32bits(got[x]) != math.Float32bits(want[x]) {
							t.Fatalf("window %v row %d px %d: repeat %v, copy %v", win, y, x, got[x], want[x])
						}
					}
				}
			}
		})
	}
}

func TestRepeatAccounting(t *testing.T) {
	d := mustNew(t, idealConfig())
	if err := d.Push(frame.NewFilled(8, 4, 10)); err != nil {
		t.Fatal(err)
	}
	if err := d.Push(frame.NewFilled(8, 4, 20)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Repeat(2); err != nil {
			t.Fatal(err)
		}
	}
	if d.NumFrames() != 12 || d.StoredFrames() != 2 {
		t.Fatalf("%d shown, %d stored; want 12 and 2", d.NumFrames(), d.StoredFrames())
	}
	if math.Abs(d.Duration()-0.1) > 1e-12 {
		t.Fatalf("Duration = %v, want 0.1", d.Duration())
	}
	if w, h := d.Size(); w != 8 || h != 4 {
		t.Fatalf("Size = %dx%d, want 8x4", w, h)
	}
	if v := d.Luminance(11).At(0, 0); v != 20 {
		t.Fatalf("frame 11 luminance %v, want the repeated 20", v)
	}
}
