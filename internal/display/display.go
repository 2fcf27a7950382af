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
// mapped to luminance through a 256-entry lookup table, avoiding per-pixel
// pow() in the hot path. A renderer that computes drive bytes itself
// writes them straight into drive storage: Reserve hands out a slot,
// Commit shows it, and Push is that pair around a quantization pass.
// Drive frames are read-only once appended, so an interval that shows an
// earlier frame again (Repeat) shares that frame's storage: NumFrames
// counts the intervals shown, StoredFrames the distinct frames ever
// pushed, HeldFrames the distinct frames stored right now.
//
// A display keeps its whole history unless its owner retires the intervals
// no reader will ask for again (Retire): their storage is recycled for later
// pushes, so a reader that only looks a bounded window behind the newest
// push (channel.Simulate) runs hour-long simulations within constant memory.
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
	// Nonzero response keeps one float32 state frame per live refresh
	// interval in memory; on a display that keeps its full history (the
	// fleet's, a Link's) prefer 0 for long throughput runs.
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
// readers: Reserve, Commit, Repeat and Retire take the write lock, every
// light-field query takes the read lock, and a reserved slot is filled
// under neither. That is exactly the shape of the pipelined
// channel simulator, where capture workers integrate frames the renderer has
// already pushed while it keeps pushing new ones.
type Display struct {
	cfg  Config
	w, h int

	// mu orders the writers (Reserve, Commit, Repeat, Retire) against the
	// light-field readers.
	mu sync.RWMutex
	// off is the number of retired intervals: drive[k−off] is the storage
	// slot of interval k, for every interval not yet retired.
	off   int
	drive []int
	// slots are the drive frames' storage, one quantized 8-bit frame each.
	// refs[s] counts the live intervals showing slot s (Repeat points
	// several intervals at one slot), or is reserved while a Slot holds it;
	// a slot whose count drops to zero goes onto free, and Reserve reuses
	// free slots before it carves new storage.
	slots [][]uint8
	refs  []int
	free  []int
	// stored counts the drive frames committed; the remaining
	// NumFrames − stored intervals are Repeat references.
	stored int
	// arena backs new slots in multi-frame chunks, so a Reserve that finds
	// no free slot costs an amortized slice carve instead of a per-frame
	// allocation. Chunks double from one frame up to 16: a retiring
	// display that holds a handful of frames carves no more than it
	// needs, a full-history one allocates once per 16 frames.
	arena []uint8
	// lut maps a drive value to linear luminance.
	lut [256]float32
	// state[k−off] is the actual luminance at the *start* of interval k
	// when ResponseTime > 0, accounting for the exponential response;
	// extended eagerly at Commit and Repeat so readers never mutate.
	// Retired state frames wait on spare for reuse.
	state []*frame.Frame
	spare []*frame.Frame
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

// NumFrames returns how many refresh intervals have been shown: every Push
// and Repeat, retired or not.
func (d *Display) NumFrames() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.shown()
}

// shown is NumFrames without locking; callers hold mu.
func (d *Display) shown() int { return d.off + len(d.drive) }

// StoredFrames returns how many distinct drive frames were ever pushed:
// NumFrames minus the intervals Repeat appended by reference.
func (d *Display) StoredFrames() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.stored
}

// HeldFrames returns how many distinct drive frames the display stores right
// now: the slots some interval not yet retired still shows.
func (d *Display) HeldFrames() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.slots) - len(d.free)
}

// Duration returns the total displayed time in seconds.
func (d *Display) Duration() float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return float64(d.shown()) / d.cfg.RefreshHz
}

// Size returns the panel resolution (0,0 before the first Push or Reserve).
func (d *Display) Size() (int, int) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.w, d.h
}

// Push appends one drive frame for the next refresh interval. Drive values
// are clamped to [0,255] and quantized (the cable carries 8-bit values).
// It is Reserve, the quantization into the slot, and Commit.
func (d *Display) Push(f *frame.Frame) error {
	s, err := d.Reserve(f.W, f.H)
	if err != nil {
		return err
	}
	for i, v := range f.Pix {
		s.Pix[i] = frame.Quant8(v)
	}
	return d.Commit(s)
}

// Slot is drive storage Reserve handed out for the next frame: the caller
// writes every byte of Pix, then Commit shows it. Until then no reader
// sees it, and Retire and later reservations leave it alone.
type Slot struct {
	Pix []uint8
	d   *Display
	idx int
}

// reserved marks a slot's refs entry while a Slot holds it: not free, not
// yet shown by any interval.
const reserved = -1

// Reserve takes a free drive slot for a w×h frame (the panel size, fixed by
// the first reservation) and returns it for the caller to fill. The fill
// runs outside the display's lock, so readers of shown intervals never
// wait on it. Its previous contents are arbitrary; a slot never committed
// stays out of use.
func (d *Display) Reserve(w, h int) (Slot, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.w == 0 {
		d.w, d.h = w, h
	} else if w != d.w || h != d.h {
		return Slot{}, fmt.Errorf("display: frame %dx%d does not match panel %dx%d", w, h, d.w, d.h)
	}
	slot := d.newSlot()
	d.refs[slot] = reserved
	return Slot{Pix: d.slots[slot], d: d, idx: slot}, nil
}

// Commit appends a filled reserved slot as the next refresh interval. A
// slot commits once; a second Commit, or one of another display's slot,
// returns an error.
func (d *Display) Commit(s Slot) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s.d != d || d.refs[s.idx] != reserved {
		return fmt.Errorf("display: slot %d is not reserved on this display", s.idx)
	}
	d.refs[s.idx] = 1
	d.drive = append(d.drive, s.idx)
	d.stored++
	if d.cfg.ResponseTime > 0 {
		d.extendState()
	}
	return nil
}

// newSlot returns a free storage slot for one drive frame, reusing a
// released one before carving new storage from the arena.
func (d *Display) newSlot() int {
	if n := len(d.free); n > 0 {
		slot := d.free[n-1]
		d.free = d.free[:n-1]
		return slot
	}
	n := d.w * d.h
	if cap(d.arena)-len(d.arena) < n {
		d.arena = make([]uint8, 0, min(16, max(1, len(d.slots)))*n)
	}
	d.slots = append(d.slots, d.arena[len(d.arena):len(d.arena)+n:len(d.arena)+n])
	d.refs = append(d.refs, 0)
	d.arena = d.arena[:len(d.arena)+n]
	return len(d.slots) - 1
}

// Repeat appends, for the next refresh interval, the drive frame shown back
// intervals ago (1 = the newest) once more. The interval shares that
// frame's storage instead of copying it, so the light field is exactly what
// pushing a copy would give at no memory cost. It returns an error when
// back is outside [1, NumFrames] or reaches a retired interval.
func (d *Display) Repeat(back int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if back < 1 || back > d.shown() {
		return fmt.Errorf("display: cannot repeat the frame %d back in a history of %d", back, d.shown())
	}
	if back > len(d.drive) {
		return fmt.Errorf("display: cannot repeat the frame %d back: interval %d is retired", back, d.shown()-back)
	}
	slot := d.drive[len(d.drive)-back]
	d.refs[slot]++
	d.drive = append(d.drive, slot)
	if d.cfg.ResponseTime > 0 {
		d.extendState()
	}
	return nil
}

// Retire releases every interval k < ⌊t/T⌋ (T the refresh period — the
// first interval RowAverage reads for a window starting at t), except the
// newest two, which Repeat(2) and the past-the-end clamp still read. A
// retired drive frame's storage is recycled by later pushes once no live
// interval shares it, and so are retired response-state frames. The owner
// calls it with the earliest window start any reader will still ask for;
// reading a retired interval panics. NumFrames, Duration and StoredFrames
// are unchanged.
func (d *Display) Retire(t float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	keep := d.shown() - 2
	k0 := math.Floor(t / d.FrameDuration())
	if !(k0 > float64(d.off)) || keep <= d.off {
		return // nothing below t is live (or t is NaN)
	}
	if k0 < float64(keep) {
		keep = int(k0)
	}
	m := keep - d.off
	for _, slot := range d.drive[:m] {
		if d.refs[slot]--; d.refs[slot] == 0 {
			d.free = append(d.free, slot)
		}
	}
	d.drive = d.drive[:copy(d.drive, d.drive[m:])]
	if len(d.state) > 0 {
		d.spare = append(d.spare, d.state[:m]...)
		d.state = d.state[:copy(d.state, d.state[m:])]
	}
	d.off = keep
}

// clampFrame returns the drive frame index clamped to the pushed range: the
// first/last frame is held before t=0 and after the end.
func (d *Display) clampFrame(k int) int {
	if k < 0 {
		return 0
	}
	if n := d.shown(); k >= n {
		return n - 1
	}
	return k
}

// driveAt returns the drive frame of interval k, clamped to the pushed
// range; reading a retired interval panics. Callers hold mu.
func (d *Display) driveAt(k int) []uint8 {
	k = d.clampFrame(k)
	if k < d.off {
		d.retired(k)
	}
	return d.slots[d.drive[k-d.off]]
}

// retired panics for a read of retired interval k.
func (d *Display) retired(k int) {
	panic(fmt.Sprintf("display: interval %d is retired (intervals before %d were released)", k, d.off))
}

// Luminance returns the steady-state linear luminance frame of drive frame
// k (clamped to the pushed range) as a freshly materialized frame. It
// panics when k is retired.
func (d *Display) Luminance(k int) *frame.Frame {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.luminance(k)
}

// luminance is Luminance without locking; callers hold mu.
func (d *Display) luminance(k int) *frame.Frame {
	if d.shown() == 0 {
		panic("display: no frames pushed")
	}
	dr := d.driveAt(k)
	out := frame.New(d.w, d.h)
	for i, v := range dr {
		out.Pix[i] = d.lut[v]
	}
	return out
}

// extendState advances the response-state chain to cover every pushed frame
// (state[k−off] exists for k ≤ NumFrames), so the read paths never mutate.
// state[0] assumes the panel settled on frame 0 before t=0. Called from
// Commit and Repeat with the write lock held.
func (d *Display) extendState() {
	if len(d.state) == 0 {
		d.state = append(d.state, d.luminance(0))
	}
	alpha := float32(math.Exp(-d.FrameDuration() / d.cfg.ResponseTime))
	for len(d.state) <= len(d.drive) {
		j := len(d.state) - 1 // completed interval, relative to off
		prev := d.state[j]
		target := d.driveAt(d.off + j)
		next := d.spareFrame()
		for i := range next.Pix {
			tg := d.lut[target[i]]
			next.Pix[i] = tg + (prev.Pix[i]-tg)*alpha
		}
		d.state = append(d.state, next)
	}
}

// spareFrame returns a retired state frame for reuse, or a new one. Every
// pixel is overwritten by the caller.
func (d *Display) spareFrame() *frame.Frame {
	if n := len(d.spare); n > 0 {
		f := d.spare[n-1]
		d.spare = d.spare[:n-1]
		return f
	}
	return frame.New(d.w, d.h)
}

// RowAverage computes, for every pixel of row y, the mean linear luminance
// over the time window [t0, t1) and stores it into dst (length ≥ panel
// width). Windows extending before 0 or past the last frame see the first /
// last frame held steady. It panics when the window starts in a retired
// interval (see Retire).
//
//hot:the camera synthesizes every captured row through this path
func (d *Display) RowAverage(y int, t0, t1 float64, dst []float32) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.shown() == 0 {
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
	if k := d.clampFrame(k0); k < d.off {
		// A window starting in a retired interval is a reader error even
		// where the strobe would skip that interval's light.
		d.retired(k)
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
			target := d.driveAt(k)[y*w : y*w+w]
			wgt := float32((b-a)/total) * boost
			for x := 0; x < w; x++ {
				dst[x] += d.lut[target[x]] * wgt
			}
		}
		return
	}
	// The response-state chain is maintained at Commit time, so the read path
	// needs no mutation: state[k−off] exists for every live k < NumFrames.
	useResp := d.cfg.ResponseTime > 0
	tauR := d.cfg.ResponseTime
	n := d.shown()
	for k := k0; k < k1; k++ {
		a := math.Max(t0, float64(k)*T)
		b := math.Min(t1, float64(k+1)*T)
		if b <= a {
			continue
		}
		target := d.driveAt(k)[y*w : y*w+w]
		if !useResp || k < 0 || k >= n {
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
		st := d.state[k-d.off].Pix[y*w : y*w+w]
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
