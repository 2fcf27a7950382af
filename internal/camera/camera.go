// Package camera simulates the receiver-side camera of the InFrame system
// (the paper uses a Lumia 1020 capturing 1280×720 at 30 FPS from 50 cm).
//
// The simulator models the channel impairments §3.3 of the paper designs
// against:
//
//   - rolling shutter: sensor rows expose at staggered times, so one capture
//     can straddle a display-frame (and data-frame) boundary row-wise;
//   - display/camera frame-rate mismatch and free-running phase;
//   - exposure integration over multiple refresh intervals;
//   - optical blur, sensor noise, resolution mismatch and 8-bit quantization
//     ("poor capture quality").
//
// A capture samples the display's light field (linear luminance), then
// gamma-encodes back to 8-bit pixel values, as real camera ISPs do.
//
// A capture is one streaming pass over the sensor rows: display rows are
// integrated in small chunks, blurred, cropped and resampled as the
// sensor rows that read them come due, and each sensor row is encoded,
// noised and quantized as soon as it is resampled. Only a few rows of
// each stage are held at once (see CaptureWith).
package camera

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"inframe/internal/display"
	"inframe/internal/fixed"
	"inframe/internal/frame"
	"inframe/internal/parallel"
)

// Config describes the simulated camera.
type Config struct {
	// W, H is the sensor output resolution.
	W, H int
	// FPS is the capture rate (paper: 30).
	FPS float64
	// Exposure is the per-row integration time in seconds. It must be
	// positive and at most the frame period.
	Exposure float64
	// ReadoutTime is the rolling-shutter scan time across all rows in
	// seconds; 0 models a global shutter. A binned 720p mode reads out in
	// under 10 ms.
	ReadoutTime float64
	// NoiseSigma is the additive Gaussian read-noise standard deviation in
	// 8-bit output units.
	NoiseSigma float64
	// BlurRadius is an optical defocus radius in display pixels applied
	// before spatial resampling (0 = sharp focus).
	BlurRadius int
	// Gamma is the output encoding exponent; matching the display's gamma
	// makes the net drive→capture map identity for static content.
	Gamma float64
	// Seed drives the noise generator; captures are deterministic per
	// (Seed, capture index).
	Seed int64
	// CropX0, CropY0, CropW, CropH select the display-pixel window the
	// sensor frames (zoom/offset). All zero means the camera frames the
	// whole display. The window is resampled onto the full sensor; parts
	// of the window outside the display see black (overscan: the camera
	// films the monitor plus the dark room behind it). The rolling shutter
	// follows the window: display row y exposes as sensor row
	// (y−CropY0)·H/CropH, clamped to [0, H).
	CropX0, CropY0, CropW, CropH int
	// Workers bounds the row-synthesis fan-out of Capture: each chunk of
	// rolling-shutter display rows is integrated across this many
	// goroutines, and the rest of the capture streams on one. 0 means
	// GOMAXPROCS; 1 forces the sequential path. The channel's capture
	// schedule ignores it and threads its own per-capture share of one
	// worker budget through CaptureWith instead. Captures are bit-identical
	// at any worker count: rows write disjoint spans and the noise RNG is
	// seeded from the capture index, never from worker identity.
	Workers int
	// Pool supplies the capture's row buffers (a few rows each of
	// integrated, horizontally blurred and window rows, and the blur's
	// column sums) and the returned capture itself. The row buffers are
	// Put back inside Capture; the returned capture is owned by the caller,
	// who may Put it back after decoding to close the loop. Nil means a
	// private pool (row buffers still recycle; returned captures are simply
	// never reused).
	Pool *frame.Pool
}

// cropped reports whether a crop window is configured.
func (c Config) cropped() bool { return c.CropW > 0 && c.CropH > 0 }

// DefaultConfig models the paper's Lumia 1020 settings scaled to the
// simulation: 30 FPS with a short exposure (a 100%-brightness monitor fills
// the sensor quickly, and every millisecond of exposure risks integrating
// across a complementary sign flip) and a binned-readout rolling shutter.
func DefaultConfig(w, h int) Config {
	return Config{
		W: w, H: h,
		FPS:         30,
		Exposure:    0.0007,
		ReadoutTime: 0.008,
		NoiseSigma:  2.5,
		BlurRadius:  1,
		Gamma:       2.2,
		Seed:        1,
	}
}

// Validate reports whether the configuration is physical.
func (c Config) Validate() error {
	if c.W <= 0 || c.H <= 0 {
		return fmt.Errorf("camera: invalid sensor size %dx%d", c.W, c.H)
	}
	if c.FPS <= 0 {
		return fmt.Errorf("camera: FPS must be positive, got %v", c.FPS)
	}
	if c.Exposure <= 0 {
		return fmt.Errorf("camera: Exposure must be positive, got %v", c.Exposure)
	}
	period := 1 / c.FPS
	if c.Exposure > period {
		return fmt.Errorf("camera: Exposure %v exceeds frame period %v", c.Exposure, period)
	}
	if c.ReadoutTime < 0 || c.ReadoutTime > period {
		return fmt.Errorf("camera: ReadoutTime %v outside [0, frame period]", c.ReadoutTime)
	}
	if c.NoiseSigma < 0 {
		return fmt.Errorf("camera: NoiseSigma must be non-negative, got %v", c.NoiseSigma)
	}
	if c.BlurRadius < 0 {
		return fmt.Errorf("camera: BlurRadius must be non-negative, got %v", c.BlurRadius)
	}
	if c.Gamma <= 0 {
		return fmt.Errorf("camera: Gamma must be positive, got %v", c.Gamma)
	}
	if (c.CropW > 0) != (c.CropH > 0) {
		return fmt.Errorf("camera: crop needs both dimensions, got %dx%d", c.CropW, c.CropH)
	}
	if c.Workers < 0 {
		return fmt.Errorf("camera: Workers must be non-negative, got %d", c.Workers)
	}
	return nil
}

// Camera captures frames from a simulated display.
type Camera struct {
	cfg  Config
	pool *frame.Pool
	// gamma is the ISP's encode curve as a Q16 fixed-point lookup table,
	// built once per camera: the per-pixel math.Pow it replaces was the
	// single largest EndToEnd profile entry (see DESIGN.md §5j).
	gamma *fixed.Gamma
	// resampler holds the taps of the last (window, sensor) size pair,
	// built once rather than on every capture; an atomic pointer because
	// the channel's schedule runs captures of one camera concurrently, and
	// a resampler is immutable once built.
	resampler atomic.Pointer[frame.Resampler]
}

// New returns a camera for the given configuration.
func New(cfg Config) (*Camera, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pool := cfg.Pool
	if pool == nil {
		pool = frame.NewPool()
	}
	return &Camera{cfg: cfg, pool: pool, gamma: fixed.NewGamma(cfg.Gamma)}, nil
}

// Config returns the camera configuration.
func (c *Camera) Config() Config { return c.cfg }

// FramePeriod returns the capture interval in seconds.
func (c *Camera) FramePeriod() float64 { return 1 / c.cfg.FPS }

// Capture exposes one frame starting at time t0 (the exposure start of the
// first sensor row) and returns the 8-bit-quantized capture. index selects
// the deterministic noise stream for this capture. The returned frame is
// drawn from the camera's pool; the caller owns it and may Put it back to
// that pool when done with it.
func (c *Camera) Capture(d *display.Display, t0 float64, index int) *frame.Frame {
	return c.CaptureWith(d, t0, index, c.cfg.Workers)
}

// CaptureWith is Capture with an explicit worker budget for the row
// synthesis, so a caller that runs several captures concurrently (the
// channel's capture schedule) can hand each one its parallel.Split share
// instead of the full worker count.
//
// A capture is one pass over the sensor rows (DESIGN.md §5j). For each
// output row the resampler names the window rows it reads; the stream
// produces them in ascending order — display rows integrated in chunks of
// chunkRows (the chunk's rows fanned out over rowWorkers), blurred by
// running sums, cropped — and holds only the few still needed. The row is
// then resampled, gamma-encoded, noised in pixel order and quantized
// straight into the output frame. Every value is computed by the same
// float operations in the same order as integrating, blurring, cropping,
// resampling, encoding, noising and quantizing whole planes one after the
// other, so captures are bit-identical to that and at any worker count.
func (c *Camera) CaptureWith(d *display.Display, t0 float64, index, rowWorkers int) *frame.Frame {
	dw, dh := d.Size()
	if dw == 0 || dh == 0 {
		panic("camera: display has no frames")
	}
	var s stream
	s.Workers = rowWorkers
	s.init(c, d, t0)
	out := c.pool.Get(c.cfg.W, c.cfg.H)
	var rng *rand.Rand
	//lint:ignore floateq NoiseSigma==0 is the configured "noise disabled" sentinel, never a computed value
	if c.cfg.NoiseSigma != 0 {
		rng = rand.New(rand.NewSource(c.cfg.Seed + int64(index)*1000003))
	}
	for oy := 0; oy < out.H; oy++ {
		lo, n := s.rs.SrcRows(oy)
		row := out.Row(oy)
		s.rs.RowInto(oy, s.window(lo, lo+n), row)
		c.develop(row, rng)
	}
	s.release(c.pool)
	return out
}

// develop turns one resampled row of linear luminance (0..255 scale) into
// the sensor's 8-bit output in place: gamma encoding through the camera's
// Q16 fixed-point curve (its error bound against the exact math.Pow curve
// is in fixed.Gamma's doc), then Gaussian read noise from rng (nil: none),
// then quantization.
func (c *Camera) develop(row []float32, rng *rand.Rand) {
	g := c.gamma
	if rng == nil {
		for x, v := range row {
			row[x] = float32(fixed.Round8(g.Encode8(v)))
		}
		return
	}
	sigma := c.cfg.NoiseSigma
	for x, v := range row {
		row[x] = float32(fixed.Round8(g.Encode8(v) + float32(rng.NormFloat64()*sigma)))
	}
}

// chunkRows is how many display rows a capture integrates at a time; at
// rowWorkers > 1 each chunk fans out across the workers.
const chunkRows = 32

// stream produces the rows of one capture's window — the display-pixel
// rectangle the sensor frames, after defocus blur — in ascending order,
// holding only the rows still to be read. Its buffers come from the
// camera's pool and go back in release.
type stream struct {
	in integrator
	// Workers is the fan-out of each chunk's integration; the name is the
	// one inframe-lint's splitbudget follows from a caller's budget into a
	// parallel region.
	Workers int
	rs      *frame.Resampler
	r       int // BlurRadius
	dw, dh  int // display size
	wx0     int // window origin in display pixels
	wy0     int
	xa, xb  int // display columns inside the window: [xa, xb)
	// pass marks a window that is the unblurred panel itself: window rows
	// are the integrated rows, read in place from lin.
	pass bool
	// endLin bounds the display rows any window row reads.
	endLin int
	// lin holds integrated display rows, hrow (BlurRadius > 0)
	// horizontally blurred ones, win the window rows unless pass.
	lin, hrow, win run
	cols           frame.BoxCols
	nextBlur       int // the next display row the vertical blur emits
	bufs           [4]*frame.Frame
}

// init sets up the stream of one capture of d starting at t0.
func (s *stream) init(c *Camera, d *display.Display, t0 float64) {
	cfg := &c.cfg
	s.dw, s.dh = d.Size()
	ww, wh := s.dw, s.dh
	if cfg.cropped() {
		s.wx0, s.wy0, ww, wh = cfg.CropX0, cfg.CropY0, cfg.CropW, cfg.CropH
	}
	s.in = integrator{d: d, t0: t0, exposure: cfg.Exposure, y0: s.wy0, span: wh, sensorH: cfg.H, w: s.dw}
	if cfg.H > 1 {
		s.in.rowDt = cfg.ReadoutTime / float64(cfg.H)
	}
	s.r = cfg.BlurRadius
	s.xa, s.xb = max(s.wx0, 0), min(s.wx0+ww, s.dw)
	s.pass = s.r == 0 && s.wx0 == 0 && s.wy0 == 0 && ww == s.dw && wh == s.dh
	rs := c.resampler.Load()
	if rs == nil || !rs.Maps(ww, wh, cfg.W, cfg.H) {
		rs = frame.NewResampler(ww, wh, cfg.W, cfg.H)
		c.resampler.Store(rs)
	}
	s.rs = rs
	// The last display row the window reads: the last output row's last
	// source row, plus the blur's reach below it.
	lo, n := rs.SrcRows(cfg.H - 1)
	last := min(lo+n-1+s.wy0, s.dh-1)
	if s.r > 0 {
		last = min(last+s.r+1, s.dh-1)
	}
	s.endLin = last + 1
	hold := rs.MaxRows() + chunkRows
	if s.pass {
		s.lin = s.take(c.pool, 0, s.dw, hold)
		return
	}
	s.lin = s.take(c.pool, 0, s.dw, chunkRows)
	s.win = s.take(c.pool, 1, ww, hold)
	if s.r > 0 {
		s.hrow = s.take(c.pool, 2, s.dw, 2*s.r+2+chunkRows)
		s.bufs[3] = c.pool.Get(s.dw, 1)
		s.cols = frame.NewBoxCols(s.bufs[3].Pix, s.r, s.dh)
	}
}

// take draws a w×rows buffer from p into slot i of bufs and returns an
// empty run over it.
func (s *stream) take(p *frame.Pool, i, w, rows int) run {
	s.bufs[i] = p.Get(w, rows)
	return run{buf: s.bufs[i].Pix, w: w}
}

// release hands the stream's buffers back to p.
func (s *stream) release(p *frame.Pool) {
	for _, f := range s.bufs {
		if f != nil {
			p.Put(f)
		}
	}
}

// window returns window rows [lo, hi) back to back. lo and hi never
// decrease from one call to the next.
func (s *stream) window(lo, hi int) []float32 {
	if s.pass {
		s.lin.keepFrom(lo)
		for s.lin.end() < hi {
			s.integrate()
		}
		return s.lin.span(lo, hi)
	}
	s.win.keepFrom(lo)
	for s.win.end() < hi {
		wy := s.win.end()
		dst := s.win.grow(1)
		y := wy + s.wy0
		if y < 0 || y >= s.dh || s.xa >= s.xb {
			// Outside the display: the window sees black (overscan).
			clear(dst)
			continue
		}
		clear(dst[:s.xa-s.wx0])
		clear(dst[s.xb-s.wx0:])
		seg := dst[s.xa-s.wx0 : s.xb-s.wx0]
		if s.r > 0 {
			s.blurred(y, seg)
		} else {
			copy(seg, s.linRow(y)[s.xa:s.xb])
		}
	}
	return s.win.span(lo, hi)
}

// blurred writes display columns [xa, xb) of blurred display row y into
// seg: the vertical running sums advance row by row from the last row
// emitted, consuming horizontally blurred rows as they are produced.
func (s *stream) blurred(y int, seg []float32) {
	for ; s.nextBlur <= y; s.nextBlur++ {
		b := s.nextBlur
		for need := min(b+s.r+1, s.dh-1); s.hrow.end() <= need; {
			hy := s.hrow.end()
			frame.BoxRow(s.linRow(hy), s.hrow.grow(1), s.r)
		}
		if b == 0 {
			s.cols.Start(s.hrow.span(0, frame.BoxColsStartRows(s.r, s.dh)))
		}
		if b == y {
			s.cols.Emit(seg, s.xa)
		}
		if b+1 < s.dh {
			add, sub := s.cols.Step(b)
			s.cols.Slide(s.hrow.row(add), s.hrow.row(sub))
			s.hrow.keepFrom(max(b+1-s.r, 0))
		}
	}
}

// linRow returns integrated display row y, integrating the chunk that
// holds it; rows below y are dropped.
func (s *stream) linRow(y int) []float32 {
	s.lin.keepFrom(y)
	for s.lin.end() <= y {
		s.integrate()
	}
	return s.lin.row(y)
}

// integrate appends the next chunk of integrated display rows to lin.
func (s *stream) integrate() {
	lo := s.lin.end()
	hi := min(lo+chunkRows, s.endLin)
	dst := s.lin.grow(hi - lo)
	if parallel.Resolve(s.Workers) > 1 {
		s.in.rowsParallel(s.Workers, lo, hi, dst)
		return
	}
	s.in.rows(lo, hi, dst)
}

// integrator synthesizes display rows of the light field: display row y
// averages the display over the exposure window of the sensor row it lands
// on — the whole panel spans the sensor uncropped, the crop window does
// cropped.
type integrator struct {
	d                   *display.Display
	t0, rowDt, exposure float64
	y0, span, sensorH   int
	w                   int // display width
}

// rows integrates display rows [lo, hi) into dst, back to back.
func (g integrator) rows(lo, hi int, dst []float32) {
	for y := lo; y < hi; y++ {
		sensorRow := min(max((y-g.y0)*g.sensorH/g.span, 0), g.sensorH-1)
		a := g.t0 + float64(sensorRow)*g.rowDt
		g.d.RowAverage(y, a, a+g.exposure, dst[(y-lo)*g.w:(y-lo+1)*g.w])
	}
}

// rowsParallel is rows fanned out across workers: rows write disjoint
// spans of dst, so any split gives the same bits.
func (g integrator) rowsParallel(workers, lo, hi int, dst []float32) {
	parallel.ForChunked(workers, hi-lo, func(a, b int) {
		g.rows(lo+a, lo+b, dst[a*g.w:b*g.w])
	})
}

// run holds consecutive rows [first, first+n) of width w back to back at
// buf[off·w:], so any span of them is one slice. Appending moves the held
// rows to the front of buf when the new rows would run off its end.
type run struct {
	buf           []float32
	w             int
	first, n, off int
}

// end returns the row the next grow appends.
func (r *run) end() int { return r.first + r.n }

// span returns held rows [lo, hi).
func (r *run) span(lo, hi int) []float32 {
	o := r.off + lo - r.first
	return r.buf[o*r.w : (o+hi-lo)*r.w]
}

// row returns held row y.
func (r *run) row(y int) []float32 { return r.span(y, y+1) }

// keepFrom drops the held rows below lo. An emptied run skips ahead: its
// next row is lo.
func (r *run) keepFrom(lo int) {
	k := min(max(lo-r.first, 0), r.n)
	r.first, r.off, r.n = r.first+k, r.off+k, r.n-k
	if r.n == 0 {
		r.first, r.off = max(r.first, lo), 0
	}
}

// grow appends k rows and returns their storage.
func (r *run) grow(k int) []float32 {
	if (r.off+r.n+k)*r.w > len(r.buf) {
		copy(r.buf, r.buf[r.off*r.w:(r.off+r.n)*r.w])
		r.off = 0
	}
	o := r.off + r.n
	r.n += k
	return r.buf[o*r.w : (o+k)*r.w]
}
