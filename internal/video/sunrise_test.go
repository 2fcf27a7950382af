package video

import (
	"math"
	"sync"
	"testing"

	"inframe/internal/frame"
)

// refSunRise is SunRise.FrameInto as a per-pixel formula — the sine, the
// drift's two remainders, Hypot and Exp at every pixel — kept as the
// reference the hoisted kernel is pinned to.
func refSunRise(s *SunRise, i int, f *frame.Frame) {
	t := math.Mod(float64(i)/s.Rate, 20) / 20
	w, h := float64(s.W), float64(s.H)
	horizon := 0.65 * h
	sunX := w * (0.25 + 0.5*t)
	sunY := horizon - (0.05+0.45*t)*horizon
	sunR := 0.09 * w
	skyBase := 90 + 80*t
	glareH := 0.10 * h
	for y := 0; y < s.H; y++ {
		fy := float64(y)
		for x := 0; x < s.W; x++ {
			fx := float64(x)
			var v float64
			if fy < horizon {
				v = skyBase + 120*(fy/horizon)
				if fy > horizon-glareH {
					v = 250
				}
				d := math.Hypot(fx-sunX, fy-sunY)
				switch {
				case d < sunR:
					v = 252
				case d < 3*sunR:
					v += (252 - v) * math.Exp(-(d-sunR)/(1.1*sunR))
				}
			} else {
				base := 55 + 18*math.Sin(fx/17+3*t*2*math.Pi)
				drift := int(float64(i) / s.Rate * 45)
				tx := ((x+drift)%s.W + s.W) % s.W
				idx := y*s.W + tx
				v = base + float64(s.strength[y*s.W+x])*float64(s.texture[idx])
			}
			if v > 255 {
				v = 255
			} else if v < 0 {
				v = 0
			}
			f.Pix[y*s.W+x] = float32(v)
		}
	}
}

// TestSunRiseMatchesPerPixelFormula: the hoisted kernel is Float32bits-
// equal to the per-pixel formula at several seeds and sizes, over frame
// indices across the whole 20 s loop and past it (the loop restarts at
// index 600), and at negative indices, where the drift is negative.
func TestSunRiseMatchesPerPixelFormula(t *testing.T) {
	for _, c := range []struct {
		w, h int
		seed int64
	}{{960, 540, 1}, {480, 270, 2}, {97, 61, 3}, {5, 3, 4}, {1, 1, 5}} {
		s := NewSunRise(c.w, c.h, c.seed)
		got, want := frame.New(c.w, c.h), frame.New(c.w, c.h)
		for _, i := range []int{0, 1, 2, 29, 150, 299, 300, 451, 599, 600, 601, 1234, 5999, -1, -77} {
			s.FrameInto(i, got)
			refSunRise(s, i, want)
			for p, v := range want.Pix {
				if math.Float32bits(got.Pix[p]) != math.Float32bits(v) {
					t.Fatalf("%dx%d seed %d frame %d pixel (%d,%d): %v, formula %v", c.w, c.h, c.seed, i, p%c.w, p/c.w, got.Pix[p], v)
				}
			}
		}
	}
}

// TestSunRiseConcurrentFrames: concurrent FrameInto calls on one clip each
// get their own column table, so every frame still matches the formula.
func TestSunRiseConcurrentFrames(t *testing.T) {
	s := NewSunRise(96, 54, 8)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, want := frame.New(96, 54), frame.New(96, 54)
			for i := g; i < 200; i += 8 {
				s.FrameInto(i, got)
				refSunRise(s, i, want)
				if !got.Equal(want) {
					errs <- "concurrent frame differs from the formula"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSunRiseWarmFrameAllocates: once a column table exists, FrameInto
// allocates nothing.
func TestSunRiseWarmFrameAllocates(t *testing.T) {
	s := NewSunRise(64, 36, 2)
	f := frame.New(64, 36)
	s.FrameInto(0, f)
	i := 1
	if n := testing.AllocsPerRun(20, func() { s.FrameInto(i, f); i++ }); n != 0 {
		t.Fatalf("warm FrameInto allocates %v times, want 0", n)
	}
}
