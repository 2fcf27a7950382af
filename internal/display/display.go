// Package display simulates the transmitter-side monitor of the InFrame
// system (the paper uses an Eizo FG2421: 120 Hz, 1920×1080, brightness 100%).
//
// The display accepts a sequence of 8-bit drive frames, one per refresh
// interval, and exposes the resulting *light field*: the linear-light
// luminance of any pixel averaged over any time window. Both receivers in
// the dual-mode channel — the human visual system model and the camera
// simulator — consume the light field through time-window integration,
// which is exactly how eyes (temporal summation) and sensors (exposure)
// observe a screen.
//
// Two display non-idealities matter for InFrame and are modelled:
//
//   - gamma: drive values map to luminance via a power law, so a ±δ drive
//     modulation produces *luminance* modulation that depends on the local
//     video level (dark content compresses the chessboard);
//   - pixel response: LCD cells approach their target exponentially with a
//     gray-to-gray time constant, smearing consecutive frames into each
//     other at 120 Hz.
//
// Drive frames are stored as bytes (the cable carries 8-bit values) and
// mapped to luminance through a 256-entry lookup table, keeping hour-long
// simulations within memory and avoiding per-pixel pow() in the hot path.
// Drive frames are read-only once appended, so an interval that shows an
// earlier frame again (Repeat) shares that frame's storage: NumFrames counts
// the intervals shown, StoredFrames the distinct frames kept.
package display

import (
	"fmt"
	"math"
	"sync"

	"inframe/internal/frame"
)

// Config describes the simulated monitor.
type Config struct {
	// RefreshHz is the refresh rate; the paper's setup runs at 120.
	RefreshHz float64
	// Brightness scales peak luminance, 0..1 (paper: 100% → 1.0).
	Brightness float64
	// Gamma is the drive-to-luminance exponent (typical LCD: 2.2).
	Gamma float64
	// ResponseTime is the exponential gray-to-gray time constant in
	// seconds (0 = ideal instant pixels; fast gaming LCD ≈ 2 ms).
	// Nonzero response keeps one float32 state frame per refresh in
	// memory; prefer 0 for long throughput runs.
	ResponseTime float64
	// StrobeDuty enables a strobed backlight (the FG2421's "Turbo 240"
	// black-frame insertion): light is emitted only during the final
	// StrobeDuty fraction of each refresh interval, scaled 1/duty so the
	// mean luminance is unchanged. The strobe fires after the LCD has
	// settled, so pixel response is hidden and ResponseTime is ignored.
	// 0 disables strobing (continuous backlight).
	StrobeDuty float64
}

// DefaultConfig models the paper's Eizo FG2421 at 100% brightness.
func DefaultConfig() Config {
	return Config{RefreshHz: 120, Brightness: 1.0, Gamma: 2.2, ResponseTime: 0.002}
}

// Validate reports whether the configuration is physical.
func (c Config) Validate() error {
	if c.RefreshHz <= 0 {
		return fmt.Errorf("display: RefreshHz must be positive, got %v", c.RefreshHz)
	}
	if c.Brightness <= 0 || c.Brightness > 1 {
		return fmt.Errorf("display: Brightness must be in (0,1], got %v", c.Brightness)
	}
	if c.Gamma <= 0 {
		return fmt.Errorf("display: Gamma must be positive, got %v", c.Gamma)
	}
	if c.ResponseTime < 0 {
		return fmt.Errorf("display: ResponseTime must be non-negative, got %v", c.ResponseTime)
	}
	if c.StrobeDuty < 0 || c.StrobeDuty > 1 {
		return fmt.Errorf("display: StrobeDuty must be in [0,1], got %v", c.StrobeDuty)
	}
	return nil
}

// Display holds the pushed drive frames and the derived light field state.
// Luminance is expressed on a 0..255 linear scale (255 = peak white at
// Brightness 1.0) so it composes naturally with 8-bit pixel arithmetic.
//
// A Display is safe for concurrent use by one pusher and any number of
// readers: Push and Repeat take the write lock, every light-field query
// takes the read lock. That is exactly the shape of the pipelined channel simulator,
// where capture workers integrate frames the renderer has already pushed
// while it keeps pushing new ones.
type Display struct {
	cfg  Config
	w, h int

	// mu orders Push (writer) against the light-field readers.
	mu sync.RWMutex
	// drive[k] is the quantized 8-bit drive frame of interval k. Entries
	// are read-only once appended, so Repeat may point several intervals
	// at one frame's storage.
	drive [][]uint8
	// stored counts the drive frames Push copied in; the remaining
	// len(drive) − stored intervals are Repeat references.
	stored int
	// arena backs drive rows in multi-frame chunks, so a Push costs an
	// amortized slice carve instead of a per-frame allocation. Exhausted
	// chunks stay alive through the drive slices that point into them (the
	// drive history IS the light field, so nothing is ever freed anyway);
	// a repeated interval carves nothing.
	arena []uint8
	// lut maps a drive value to linear luminance.
	lut [256]float32
	// state[k] is the actual luminance at the *start* of interval k when
	// ResponseTime > 0, accounting for the exponential response; extended
	// eagerly at Push so readers never mutate.
	state []*frame.Frame
}

// New returns a display with the given config; frame dimensions are fixed by
// the first pushed frame.
func New(cfg Config) (*Display, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Display{cfg: cfg}
	for v := 0; v < 256; v++ {
		d.lut[v] = float32(cfg.Brightness * 255 * math.Pow(float64(v)/255, cfg.Gamma))
	}
	return d, nil
}

// Config returns the display configuration.
func (d *Display) Config() Config { return d.cfg }

// FrameDuration returns the length of one refresh interval in seconds.
func (d *Display) FrameDuration() float64 { return 1 / d.cfg.RefreshHz }

// NumFrames returns how many drive frames have been pushed.
func (d *Display) NumFrames() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.drive)
}

// StoredFrames returns how many distinct drive frames the display holds:
// NumFrames minus the intervals Repeat appended by reference.
func (d *Display) StoredFrames() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.stored
}

// Duration returns the total displayed time in seconds.
func (d *Display) Duration() float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return float64(len(d.drive)) / d.cfg.RefreshHz
}

// Size returns the panel resolution (0,0 before the first Push).
func (d *Display) Size() (int, int) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.w, d.h
}

// Push appends one drive frame for the next refresh interval. Drive values
// are clamped to [0,255] and quantized (the cable carries 8-bit values).
func (d *Display) Push(f *frame.Frame) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.w == 0 {
		d.w, d.h = f.W, f.H
	} else if f.W != d.w || f.H != d.h {
		return fmt.Errorf("display: frame %dx%d does not match panel %dx%d", f.W, f.H, d.w, d.h)
	}
	n := len(f.Pix)
	if cap(d.arena)-len(d.arena) < n {
		// Carve drive frames from 16-frame chunks: same retained memory
		// as per-frame allocation (the history is kept forever either
		// way), 1/16th the allocations.
		d.arena = make([]uint8, 0, 16*n)
	}
	dr := d.arena[len(d.arena) : len(d.arena)+n : len(d.arena)+n]
	d.arena = d.arena[:len(d.arena)+n]
	for i, v := range f.Pix {
		dr[i] = frame.Quant8(v)
	}
	d.drive = append(d.drive, dr)
	d.stored++
	if d.cfg.ResponseTime > 0 {
		d.extendState()
	}
	return nil
}

// Repeat appends, for the next refresh interval, the drive frame shown back
// intervals ago (1 = the newest) once more. The interval shares that
// frame's storage instead of copying it, so the light field is exactly what
// pushing a copy would give at no memory cost. It returns an error when
// back is outside [1, NumFrames].
func (d *Display) Repeat(back int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if back < 1 || back > len(d.drive) {
		return fmt.Errorf("display: cannot repeat the frame %d back in a history of %d", back, len(d.drive))
	}
	d.drive = append(d.drive, d.drive[len(d.drive)-back])
	if d.cfg.ResponseTime > 0 {
		d.extendState()
	}
	return nil
}

// clampFrame returns the drive frame index clamped to the pushed range: the
// first/last frame is held before t=0 and after the end.
func (d *Display) clampFrame(k int) int {
	if k < 0 {
		return 0
	}
	if k >= len(d.drive) {
		return len(d.drive) - 1
	}
	return k
}

// Luminance returns the steady-state linear luminance frame of drive frame
// k (clamped to the pushed range) as a freshly materialized frame.
func (d *Display) Luminance(k int) *frame.Frame {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.luminance(k)
}

// luminance is Luminance without locking; callers hold mu.
func (d *Display) luminance(k int) *frame.Frame {
	if len(d.drive) == 0 {
		panic("display: no frames pushed")
	}
	dr := d.drive[d.clampFrame(k)]
	out := frame.New(d.w, d.h)
	for i, v := range dr {
		out.Pix[i] = d.lut[v]
	}
	return out
}

// extendState advances the response-state chain to cover every pushed frame
// (state[k] exists for k ≤ len(drive)), so the read paths never mutate.
// state[0] assumes the panel settled on frame 0 before t=0. Called from Push
// with the write lock held.
func (d *Display) extendState() {
	if len(d.state) == 0 {
		d.state = append(d.state, d.luminance(0))
	}
	alpha := float32(math.Exp(-d.FrameDuration() / d.cfg.ResponseTime))
	for len(d.state) <= len(d.drive) {
		j := len(d.state) - 1 // completed interval
		prev := d.state[j]
		target := d.drive[d.clampFrame(j)]
		next := frame.New(d.w, d.h)
		for i := range next.Pix {
			tg := d.lut[target[i]]
			next.Pix[i] = tg + (prev.Pix[i]-tg)*alpha
		}
		d.state = append(d.state, next)
	}
}

// RowAverage computes, for every pixel of row y, the mean linear luminance
// over the time window [t0, t1) and stores it into dst (length ≥ panel
// width). Windows extending before 0 or past the last frame see the first /
// last frame held steady.
//
//hot:the camera synthesizes every captured row through this path
func (d *Display) RowAverage(y int, t0, t1 float64, dst []float32) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.drive) == 0 {
		panic("display: no frames pushed")
	}
	if t1 <= t0 {
		panic(fmt.Sprintf("display: empty window [%v,%v)", t0, t1))
	}
	if y < 0 || y >= d.h {
		panic(fmt.Sprintf("display: row %d out of range", y))
	}
	w := d.w
	for x := 0; x < w; x++ {
		dst[x] = 0
	}
	T := d.FrameDuration()
	k0 := int(math.Floor(t0 / T))
	k1 := int(math.Ceil(t1 / T))
	if k1 <= k0 {
		k1 = k0 + 1
	}
	total := t1 - t0
	if duty := d.cfg.StrobeDuty; duty > 0 && duty < 1 {
		// Strobed backlight: light only during the final duty fraction of
		// each interval, at target luminance scaled by 1/duty.
		boost := float32(1 / duty)
		for k := k0; k < k1; k++ {
			sOn := (float64(k) + 1 - duty) * T
			sOff := float64(k+1) * T
			a := math.Max(t0, sOn)
			b := math.Min(t1, sOff)
			if b <= a {
				continue
			}
			target := d.drive[d.clampFrame(k)][y*w : y*w+w]
			wgt := float32((b-a)/total) * boost
			for x := 0; x < w; x++ {
				dst[x] += d.lut[target[x]] * wgt
			}
		}
		return
	}
	// The response-state chain is maintained at Push time, so the read path
	// needs no mutation: state[k] exists for every k < len(drive).
	useResp := d.cfg.ResponseTime > 0
	tauR := d.cfg.ResponseTime
	for k := k0; k < k1; k++ {
		a := math.Max(t0, float64(k)*T)
		b := math.Min(t1, float64(k+1)*T)
		if b <= a {
			continue
		}
		target := d.drive[d.clampFrame(k)][y*w : y*w+w]
		if !useResp || k < 0 || k >= len(d.drive) {
			// Settled (held) frame or ideal pixels: constant luminance.
			wgt := float32((b - a) / total)
			for x := 0; x < w; x++ {
				dst[x] += d.lut[target[x]] * wgt
			}
			continue
		}
		// Exponential approach from the interval-start state:
		// ∫ target + (s−target)·e^{−(t−tk)/τ} dt over [a,b].
		tk := float64(k) * T
		ea := math.Exp(-(a - tk) / tauR)
		eb := math.Exp(-(b - tk) / tauR)
		cLin := float32((b - a) / total)
		cExp := float32(tauR * (ea - eb) / total)
		st := d.state[k].Pix[y*w : y*w+w]
		for x := 0; x < w; x++ {
			tg := d.lut[target[x]]
			dst[x] += tg*cLin + (st[x]-tg)*cExp
		}
	}
}

// WindowAverage returns a full frame of mean linear luminance over [t0, t1).
func (d *Display) WindowAverage(t0, t1 float64) *frame.Frame {
	w, h := d.Size()
	out := frame.New(w, h)
	d.WindowAverageInto(t0, t1, out)
	return out
}

// WindowAverageInto computes the mean linear luminance over [t0, t1) into
// dst (which must match the panel size), writing each panel row in place —
// the allocation-free form of WindowAverage for pooled buffers.
func (d *Display) WindowAverageInto(t0, t1 float64, dst *frame.Frame) {
	w, h := d.Size()
	if dst.W != w || dst.H != h {
		panic(fmt.Sprintf("display: WindowAverageInto %dx%d does not match panel %dx%d", dst.W, dst.H, w, h))
	}
	for y := 0; y < h; y++ {
		d.RowAverage(y, t0, t1, dst.Row(y))
	}
}

// PixelWaveform samples the luminance of pixel (x, y) at n uniform points in
// [t0, t1), using a sample window of dt seconds each; used by the HVS model
// and waveform verification.
func (d *Display) PixelWaveform(x, y int, t0, t1 float64, n int) []float64 {
	if n <= 0 {
		panic("display: non-positive sample count")
	}
	out := make([]float64, n)
	w, _ := d.Size()
	d.PixelWaveformInto(x, y, t0, t1, out, make([]float32, w))
	return out
}

// PixelWaveformInto is PixelWaveform writing into caller-owned buffers: out
// receives one sample per element (its length sets the sample count) and
// row is integration scratch of at least the panel width. The HVS fusion
// path shares one row buffer across every sampled point rather than
// allocating per waveform.
func (d *Display) PixelWaveformInto(x, y int, t0, t1 float64, out []float64, row []float32) {
	n := len(out)
	if n <= 0 {
		panic("display: non-positive sample count")
	}
	dt := (t1 - t0) / float64(n)
	for i := 0; i < n; i++ {
		a := t0 + float64(i)*dt
		d.RowAverage(y, a, a+dt, row)
		out[i] = float64(row[x])
	}
}

// EncodeLuminance converts a linear-light value (0..255 scale) back to the
// 8-bit drive value that would produce it, inverting gamma and brightness.
// It is the reference inverse transform used by the camera's encoder.
func (d *Display) EncodeLuminance(l float64) float64 {
	if l <= 0 {
		return 0
	}
	v := 255 * math.Pow(l/(255*d.cfg.Brightness), 1/d.cfg.Gamma)
	if v > 255 {
		v = 255
	}
	return v
}
