// Package video provides the primary-channel content sources for InFrame:
// an abstract Source interface and a set of procedural generators standing in
// for the paper's test inputs (pure gray, pure dark-gray, and a sun-rising
// clip), plus extra scenes used in tests and ablations.
//
// A Source produces luminance frames indexed by frame number at its native
// frame rate (the paper uses 30 FPS content on a 120 Hz display).
package video

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"inframe/internal/frame"
)

// Source yields the primary video content, frame by frame.
type Source interface {
	// Frame returns the i-th video frame. Implementations must return a
	// frame the caller may mutate (a fresh copy or freshly rendered).
	Frame(i int) *frame.Frame
	// Size returns the frame dimensions in pixels.
	Size() (w, h int)
	// FPS returns the native content frame rate.
	FPS() float64
}

// IntoSource is an optional Source capability: FrameInto renders frame i
// into a caller-owned buffer instead of allocating one, producing pixels
// bit-identical to Frame(i). The pooled multiplexer type-asserts for it so
// the steady-state render loop reuses one video buffer for the whole run;
// sources without it fall back to per-video-frame allocation. dst must
// match the source size and every pixel is overwritten (dst need not be
// zeroed).
type IntoSource interface {
	Source
	FrameInto(i int, dst *frame.Frame)
}

// Region is an axis-aligned pixel rectangle inside a video frame. The zero
// Region is empty and means "nothing changed".
type Region struct {
	X, Y, W, H int
}

// Empty reports whether the region covers no pixels.
func (r Region) Empty() bool { return r.W <= 0 || r.H <= 0 }

// Union returns the bounding region of r and s.
func (r Region) Union(s Region) Region {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	x0, y0 := min(r.X, s.X), min(r.Y, s.Y)
	x1 := max(r.X+r.W, s.X+s.W)
	y1 := max(r.Y+r.H, s.Y+s.H)
	return Region{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}

// Intersects reports whether r overlaps the rectangle with origin (x0, y0)
// and size w×h.
func (r Region) Intersects(x0, y0, w, h int) bool {
	return !r.Empty() && r.X < x0+w && x0 < r.X+r.W && r.Y < y0+h && y0 < r.Y+r.H
}

// RegionSource is an optional Source capability: a dirty-region hint for
// incremental consumers. DirtyRegion(i) returns, for i > 0, a region
// guaranteed to contain every pixel that differs between frames i-1 and i
// (an empty region therefore promises frame i is identical to frame i-1),
// with ok true. Returning ok false — required for i ≤ 0, allowed anywhere —
// degrades the caller to a conservative full-frame update, which is also
// what consumers must assume for sources without the interface. The hint
// must be sound: over-reporting is a missed optimization, under-reporting
// corrupts incremental renderers such as the multiplexer's per-Block
// headroom cache.
type RegionSource interface {
	Source
	DirtyRegion(i int) (Region, bool)
}

// staticDirty is the DirtyRegion of a source whose frames never change:
// empty (nothing dirty) for every transition, unknown for i ≤ 0.
func staticDirty(i int) (Region, bool) {
	if i <= 0 {
		return Region{}, false
	}
	return Region{}, true
}

// Solid is a constant-luminance video, the paper's "pure gray" and
// "pure dark gray" inputs (RGB 180 and 127 respectively, which collapse to
// the same value in luminance).
type Solid struct {
	W, H  int
	Level float32
	Rate  float64
}

// NewSolid returns a solid video source at 30 FPS.
func NewSolid(w, h int, level float32) *Solid {
	return &Solid{W: w, H: h, Level: level, Rate: 30}
}

// Frame implements Source.
func (s *Solid) Frame(int) *frame.Frame { return frame.NewFilled(s.W, s.H, s.Level) }

// FrameInto implements IntoSource.
func (s *Solid) FrameInto(_ int, dst *frame.Frame) { dst.Fill(s.Level) }

// Size implements Source.
func (s *Solid) Size() (int, int) { return s.W, s.H }

// FPS implements Source.
func (s *Solid) FPS() float64 { return s.Rate }

// DirtyRegion implements RegionSource: a solid field never changes.
func (s *Solid) DirtyRegion(i int) (Region, bool) { return staticDirty(i) }

// Gray returns the paper's bright pure-gray input (RGB 180,180,180).
func Gray(w, h int) *Solid { return NewSolid(w, h, 180) }

// DarkGray returns the paper's dark-gray input (RGB 127,127,127).
func DarkGray(w, h int) *Solid { return NewSolid(w, h, 127) }

// SunRise procedurally reproduces the structure of the paper's "sun-rising
// video clip" as seen by the secondary channel: a brightening sky gradient,
// a rising sun disc with a wide saturated halo and a glare band on the
// horizon (areas with no clipping headroom, where the local amplitude
// adjustment of §3.3 crushes the chessboard regardless of δ), and a dark
// ground with patchy high-spatial-frequency texture (false chessboard
// energy that stresses the noise detector).
type SunRise struct {
	W, H int
	Rate float64
	seed int64
	// texture is static per-pixel noise; strength is a patchy low-
	// frequency field modulating it, both regenerated from the seed.
	texture  []float32
	strength []float32
	// waves holds spare column tables for FrameInto, one per caller
	// running at once, so a warm FrameInto allocates nothing and
	// concurrent calls never share one.
	mu    sync.Mutex
	waves [][]float64
}

// NewSunRise builds the procedural clip. The same seed reproduces the same
// clip exactly.
func NewSunRise(w, h int, seed int64) *SunRise {
	s := &SunRise{W: w, H: h, Rate: 30, seed: seed}
	rng := rand.New(rand.NewSource(seed))
	s.texture = make([]float32, w*h)
	for i := range s.texture {
		s.texture[i] = rng.Float32()*2 - 1
	}
	// Patchy strength: constant within ~1/32-frame cells, varied across
	// them, so some regions are heavily textured and others nearly flat.
	cell := w / 32
	if cell < 2 {
		cell = 2
	}
	cw := (w + cell - 1) / cell
	ch := (h + cell - 1) / cell
	cells := make([]float32, cw*ch)
	for i := range cells {
		// Heavy-tailed: most cells mild, some strong.
		u := rng.Float32()
		cells[i] = 15 + 200*u*u
	}
	s.strength = make([]float32, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s.strength[y*w+x] = cells[(y/cell)*cw+x/cell]
		}
	}
	return s
}

// Frame implements Source. The clip loops every 20 seconds of content.
func (s *SunRise) Frame(i int) *frame.Frame {
	f := frame.New(s.W, s.H)
	s.FrameInto(i, f)
	return f
}

// FrameInto implements IntoSource; every pixel of dst is written.
//
// Terms that depend on x alone are computed once per frame: the ground's
// luminance wave (a column table) and the texture drift (a start column
// stepped with a wrap). The sun's Hypot and Exp run only inside the halo's
// bounding box: Hypot(dx, dy) ≥ max(|dx|, |dy|), so outside it neither
// the disc nor the halo can apply. Every pixel is the value the
// per-pixel formula gives, bit for bit.
func (s *SunRise) FrameInto(i int, f *frame.Frame) {
	t := math.Mod(float64(i)/s.Rate, 20) / 20 // progress 0..1
	w, h := float64(s.W), float64(s.H)
	horizon := 0.65 * h
	sunX := w * (0.25 + 0.5*t)
	sunY := horizon - (0.05+0.45*t)*horizon
	sunR := 0.09 * w
	halo := 3 * sunR
	skyBase := 90 + 80*t
	glareH := 0.10 * h // saturated glare band above the horizon
	// Ground: dark with patchy texture that drifts slowly (water/foliage
	// motion), plus gentle luminance waves. The drift matters to the
	// secondary channel: moving texture defeats temporal background
	// subtraction the way real footage does.
	wave := s.takeWave()
	defer s.putWave(wave)
	phase := 3 * t * 2 * math.Pi
	for x := range wave {
		wave[x] = 55 + 18*math.Sin(float64(x)/17+phase)
	}
	drift := int(float64(i) / s.Rate * 45) // 1.5 px per frame
	tx0 := (drift%s.W + s.W) % s.W
	for y := 0; y < s.H; y++ {
		fy := float64(y)
		row := f.Pix[y*s.W : (y+1)*s.W]
		if fy >= horizon {
			off := y * s.W
			tex, str := s.texture[off:off+s.W], s.strength[off:off+s.W]
			tx := tx0
			for x := range row {
				row[x] = clampLevel(wave[x] + float64(str[x])*float64(tex[tx]))
				if tx++; tx == s.W {
					tx = 0
				}
			}
			continue
		}
		// Sky: vertical gradient brightening towards the horizon.
		sky := skyBase + 120*(fy/horizon)
		// Glare band hugging the horizon: effectively saturated.
		if fy > horizon-glareH {
			sky = 250
		}
		dy := fy - sunY
		if math.Abs(dy) >= halo {
			v := clampLevel(sky)
			for x := range row {
				row[x] = v
			}
			continue
		}
		// Sun disc and halo.
		for x := range row {
			v := sky
			if dx := float64(x) - sunX; math.Abs(dx) < halo {
				d := math.Hypot(dx, dy)
				switch {
				case d < sunR:
					v = 252
				case d < halo:
					v += (252 - v) * math.Exp(-(d-sunR)/(1.1*sunR))
				}
			}
			row[x] = clampLevel(v)
		}
	}
}

// clampLevel clamps v to [0, 255] as a pixel value.
func clampLevel(v float64) float32 {
	if v > 255 {
		v = 255
	} else if v < 0 {
		v = 0
	}
	return float32(v)
}

// takeWave returns a column table of W entries, reusing a spare one.
func (s *SunRise) takeWave() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.waves); n > 0 {
		wave := s.waves[n-1]
		s.waves = s.waves[:n-1]
		return wave
	}
	return make([]float64, s.W)
}

// putWave hands a column table back for the next FrameInto.
func (s *SunRise) putWave(wave []float64) {
	s.mu.Lock()
	s.waves = append(s.waves, wave)
	s.mu.Unlock()
}

// Size implements Source.
func (s *SunRise) Size() (int, int) { return s.W, s.H }

// FPS implements Source.
func (s *SunRise) FPS() float64 { return s.Rate }

// Noise is an i.i.d. uniform noise video: the worst case for the chessboard
// detector, used in robustness tests.
type Noise struct {
	W, H int
	Rate float64
	Lo   float32
	Hi   float32
	seed int64
}

// NewNoise returns a noise source with pixel values uniform in [lo, hi].
func NewNoise(w, h int, lo, hi float32, seed int64) *Noise {
	return &Noise{W: w, H: h, Rate: 30, Lo: lo, Hi: hi, seed: seed}
}

// Frame implements Source. Each index yields a deterministic frame derived
// from the source seed and the index.
func (n *Noise) Frame(i int) *frame.Frame {
	f := frame.New(n.W, n.H)
	n.FrameInto(i, f)
	return f
}

// FrameInto implements IntoSource; every pixel of dst is written.
func (n *Noise) FrameInto(i int, f *frame.Frame) {
	rng := rand.New(rand.NewSource(n.seed ^ int64(i)*0x9e3779b97f4a7c))
	span := n.Hi - n.Lo
	for j := range f.Pix {
		f.Pix[j] = n.Lo + rng.Float32()*span
	}
}

// Size implements Source.
func (n *Noise) Size() (int, int) { return n.W, n.H }

// FPS implements Source.
func (n *Noise) FPS() float64 { return n.Rate }

// MovingBars renders vertical bars drifting horizontally: sustained motion
// content exercising the phantom-array interaction and mid-level texture.
type MovingBars struct {
	W, H   int
	Rate   float64
	Period int     // bar period in pixels
	Speed  float64 // pixels per frame
	Lo, Hi float32
}

// NewMovingBars returns a drifting-bars source.
func NewMovingBars(w, h int, period int, speed float64) *MovingBars {
	return &MovingBars{W: w, H: h, Rate: 30, Period: period, Speed: speed, Lo: 60, Hi: 190}
}

// Frame implements Source.
func (m *MovingBars) Frame(i int) *frame.Frame {
	f := frame.New(m.W, m.H)
	m.FrameInto(i, f)
	return f
}

// FrameInto implements IntoSource; every pixel of dst is written.
func (m *MovingBars) FrameInto(i int, f *frame.Frame) {
	off := m.Speed * float64(i)
	p := float64(m.Period)
	for x := 0; x < m.W; x++ {
		phase := math.Mod(float64(x)+off, p) / p
		v := m.Lo
		if phase >= 0.5 {
			v = m.Hi
		}
		for y := 0; y < m.H; y++ {
			f.Pix[y*m.W+x] = v
		}
	}
}

// Size implements Source.
func (m *MovingBars) Size() (int, int) { return m.W, m.H }

// FPS implements Source.
func (m *MovingBars) FPS() float64 { return m.Rate }

// Gradient renders a static diagonal luminance ramp covering the full 0..255
// range, exercising the clipping-aware amplitude adjustment at both ends.
type Gradient struct {
	W, H int
	Rate float64
}

// NewGradient returns a static full-range gradient source.
func NewGradient(w, h int) *Gradient { return &Gradient{W: w, H: h, Rate: 30} }

// Frame implements Source.
func (g *Gradient) Frame(int) *frame.Frame {
	f := frame.New(g.W, g.H)
	g.FrameInto(0, f)
	return f
}

// FrameInto implements IntoSource; every pixel of dst is written.
func (g *Gradient) FrameInto(_ int, f *frame.Frame) {
	den := float64(g.W + g.H - 2)
	if g.W+g.H-2 == 0 {
		den = 1
	}
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			f.Pix[y*g.W+x] = float32(255 * float64(x+y) / den)
		}
	}
}

// Size implements Source.
func (g *Gradient) Size() (int, int) { return g.W, g.H }

// FPS implements Source.
func (g *Gradient) FPS() float64 { return g.Rate }

// DirtyRegion implements RegionSource: the gradient is static.
func (g *Gradient) DirtyRegion(i int) (Region, bool) { return staticDirty(i) }

// Clip is a fixed, pre-rendered sequence of frames that loops; it adapts any
// recorded material to the Source interface.
type Clip struct {
	Frames []*frame.Frame
	Rate   float64
}

// NewClip wraps pre-rendered frames as a looping 30 FPS source. It panics if
// frames is empty or sizes are inconsistent, since that is a programming
// error at construction time.
func NewClip(frames []*frame.Frame) *Clip {
	if len(frames) == 0 {
		panic("video.NewClip: no frames")
	}
	w, h := frames[0].W, frames[0].H
	for i, f := range frames {
		if f.W != w || f.H != h {
			panic(fmt.Sprintf("video.NewClip: frame %d is %dx%d, want %dx%d", i, f.W, f.H, w, h))
		}
	}
	return &Clip{Frames: frames, Rate: 30}
}

// Frame implements Source, looping over the recorded frames.
func (c *Clip) Frame(i int) *frame.Frame {
	n := len(c.Frames)
	return c.Frames[((i%n)+n)%n].Clone()
}

// FrameInto implements IntoSource, copying the recorded frame into dst.
func (c *Clip) FrameInto(i int, dst *frame.Frame) {
	n := len(c.Frames)
	c.Frames[((i%n)+n)%n].CloneInto(dst)
}

// Size implements Source.
func (c *Clip) Size() (int, int) { return c.Frames[0].W, c.Frames[0].H }

// FPS implements Source.
func (c *Clip) FPS() float64 { return c.Rate }

// Record renders n frames of src into a Clip, freezing procedural content so
// repeated passes (e.g. encoder calibration then measurement) see identical
// input.
func Record(src Source, n int) *Clip {
	frames := make([]*frame.Frame, n)
	for i := range frames {
		frames[i] = src.Frame(i)
	}
	c := NewClip(frames)
	c.Rate = src.FPS()
	return c
}
