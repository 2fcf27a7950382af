// Package channel composes the display and camera simulators into the full
// screen→camera link of the InFrame system, providing the one-call
// simulation used by experiments: multiplexed frames in, captured frames
// (with exposure timing) out.
package channel

import (
	"fmt"
	"math"

	"inframe/internal/camera"
	"inframe/internal/core"
	"inframe/internal/display"
	"inframe/internal/frame"
	"inframe/internal/impair"
	"inframe/internal/parallel"
)

// Config describes one end-to-end link.
type Config struct {
	// Display is the monitor model.
	Display display.Config
	// Camera is the capture model.
	Camera camera.Config
	// CameraStart offsets the first exposure relative to the first
	// displayed frame, modelling free-running clocks (0 = aligned).
	//
	// Any finite offset is defined, not just [0, frame period):
	//
	//   - A negative offset starts exposures before the first display
	//     frame. The display clamps: windows before t=0 integrate the
	//     first pushed frame as if it had always been on the monitor (a
	//     camera that starts rolling while the screen shows a static
	//     image). The capture-count budget shrinks accordingly — the
	//     formula n = (duration − CameraStart − exposure − readout) /
	//     period grows n for negative offsets, and every extra capture
	//     sees the held first frame.
	//   - Offsets of one display-frame period or more simply skip that
	//     much of the transmission; with a free-running camera clock the
	//     offset is arbitrary, so no wrap-around is applied. Offsets
	//     beyond the displayed duration leave no room for a capture and
	//     Simulate reports the "too short" error.
	CameraStart float64
	// Workers is the capture schedule's budget: display frame k+1 renders
	// while captures whose exposure windows are already covered run behind
	// it on up to this many goroutines, each capture's row sweep taking a
	// parallel.Split share (camera.Config.Workers is not consulted). 0
	// means GOMAXPROCS; 1 runs every capture inline right after the push
	// that covers it. Results are bit-identical at any worker count — a
	// capture is dispatched only once every display frame its exposure
	// window touches has been pushed, and captures merge by index.
	Workers int
	// Pool supplies the frame buffers of the capture side (see
	// camera.Config.Pool); it is copied into the camera configuration when
	// the camera has no pool of its own. Share one pool with the
	// multiplexer and receiver (core.Params.Pool, ReceiverConfig.Pool) and
	// Put captures back after decoding for an allocation-free steady
	// state. Nil keeps per-stage private pools.
	Pool *frame.Pool
	// Impair optionally corrupts the link with a seeded, deterministic
	// fault stack — clock drift, exposure jitter, capture drop and
	// duplication, lighting and sensor faults (see internal/impair). Nil
	// or an all-zero config is the zero impairment of the one capture
	// schedule, which leaves every clean capture and time bit-identical.
	Impair *impair.Config
}

// DefaultConfig returns the paper's setup scaled to a capture resolution:
// 120 Hz display, 30 FPS rolling-shutter camera. The display's pixel
// response is zeroed: the paper's Eizo FG2421 is a strobed fast-GtG gaming
// panel, and an un-strobed 2 ms exponential response would smear every
// complementary pair into the next frame (see the response ablation in the
// experiments package for the quantified effect).
func DefaultConfig(capW, capH int) Config {
	dcfg := display.DefaultConfig()
	dcfg.ResponseTime = 0
	return Config{
		Display: dcfg,
		Camera:  camera.DefaultConfig(capW, capH),
	}
}

// Link is an instantiated screen→camera channel.
type Link struct {
	Display *display.Display
	Camera  *camera.Camera
	cfg     Config
}

// New builds a link from the configuration.
func New(cfg Config) (*Link, error) {
	d, err := display.New(cfg.Display)
	if err != nil {
		return nil, fmt.Errorf("channel: %w", err)
	}
	if cfg.Pool != nil && cfg.Camera.Pool == nil {
		cfg.Camera.Pool = cfg.Pool
	}
	if err := cfg.Impair.Validate(); err != nil {
		return nil, fmt.Errorf("channel: %w", err)
	}
	c, err := camera.New(cfg.Camera)
	if err != nil {
		return nil, fmt.Errorf("channel: %w", err)
	}
	return &Link{Display: d, Camera: c, cfg: cfg}, nil
}

// Config returns the link configuration.
func (l *Link) Config() Config { return l.cfg }

// Transmit pushes pre-rendered display frames onto the monitor.
func (l *Link) Transmit(frames []*frame.Frame) error {
	for i, f := range frames {
		if err := l.Display.Push(f); err != nil {
			return fmt.Errorf("channel: frame %d: %w", i, err)
		}
	}
	return nil
}

// CaptureAll captures as many camera frames as fit inside the displayed
// duration, starting at CameraStart and through the link's impairments,
// returning frames and exposure start times (nil when none fit).
func (l *Link) CaptureAll() ([]*frame.Frame, []float64) {
	return Capture(l.Display, l.Camera, l.cfg.CameraStart, l.cfg.Impair, l.cfg.Workers)
}

// Capture runs the link's capture schedule over a display whose frames have
// all been pushed: every capture that fits inside the displayed duration,
// from start, through the impairment stack imp (nil or all-zero is the
// clean link), on a budget of workers goroutines. It is what Simulate
// computes minus the rendering, so a caller that renders once and captures
// many times (the fleet) gets captures bit-identical to a standalone
// Simulate with the same camera, start and impairments.
func Capture(d *display.Display, cam *camera.Camera, start float64, imp *impair.Config, workers int) ([]*frame.Frame, []float64) {
	return newSchedule(d, cam, start, imp, workers, d.Duration()).finish()
}

// schedule is the one capture schedule of the link: a free-running camera
// sampling the display every (drift-skewed) frame period from a start
// offset. The clean link is the zero impairment: a zero impair.Stack keeps
// the nominal period (base·1), adds no jitter, leaves every frame untouched
// and passes the sequence through, so clean results are bit-identical to a
// link with no impairment model at all.
//
// Captures are dispatched in index order, each once every display frame its
// exposure + readout window touches is on the monitor, onto a pool of the
// schedule's workers; at one worker the pool runs inline, interleaving
// captures with the pushes. Every capture's noise and fault streams are
// keyed by its index and results land in index-addressed slots, so the
// sequence is bit-identical at any worker count and any push interleaving.
type schedule struct {
	st     *impair.Stack
	pool   *parallel.Pool
	frames *frame.Pool // the camera's pool: drops return to it, duplicates come from it
	take   func(i int) // exposes capture i into caps[i]
	caps   []*frame.Frame
	times  []float64
	period float64
	span   float64 // exposure + readout: the window one capture integrates
	frameT float64 // display frame period
	next   int     // first capture not yet dispatched
}

// newSchedule plans every capture that fits inside dur seconds of display:
// jitter may push an exposure later by up to StartJitter, so the count
// budgets for it and every capture fits even at the jitter extreme.
func newSchedule(d *display.Display, cam *camera.Camera, start float64, imp *impair.Config, workers int, dur float64) *schedule {
	var cfg impair.Config
	if imp != nil {
		cfg = *imp
	}
	ccfg := cam.Config()
	s := &schedule{
		st:     impair.New(cfg),
		pool:   parallel.NewPool(workers),
		frames: ccfg.Pool,
		span:   ccfg.Exposure + ccfg.ReadoutTime,
		frameT: d.FrameDuration(),
	}
	s.period = s.st.Period(cam.FramePeriod())
	n := int((dur - start - s.span - cfg.StartJitter) / s.period)
	if n <= 0 {
		return s
	}
	s.caps = make([]*frame.Frame, n)
	s.times = make([]float64, n)
	for i := range s.times {
		s.times[i] = s.st.CaptureTime(i, start, s.period)
	}
	// Split the budget between concurrent captures and each capture's row
	// sweep: n captures × full-budget sweeps would oversubscribe it.
	rows := parallel.Split(workers, min(parallel.Resolve(workers), n))
	s.take = func(i int) {
		f := cam.CaptureWith(d, s.times[i], i, rows)
		s.st.ApplyFrame(f, i, s.times[i], ccfg.Exposure)
		s.caps[i] = f
	}
	return s
}

// advance dispatches, in index order, every pending capture whose window
// [t, t+exposure+readout) lies within the first pushed display frames.
func (s *schedule) advance(pushed int) {
	for ; s.next < len(s.times); s.next++ {
		if need := int(math.Ceil((s.times[s.next] + s.span) / s.frameT)); need > pushed {
			return
		}
		i := s.next
		s.pool.Go(func() { s.take(i) })
	}
}

// finish dispatches the stragglers (everything is pushed now, so float
// boundary cases are safe to run), waits for every capture and runs the
// delivery stages (drop, duplicate) over the assembled sequence.
func (s *schedule) finish() ([]*frame.Frame, []float64) {
	s.advance(math.MaxInt)
	s.pool.Wait()
	if len(s.caps) == 0 {
		return nil, nil
	}
	return s.st.ApplySequence(s.caps, s.times, s.period, s.frames)
}

// Result bundles a one-shot simulation's outputs.
type Result struct {
	Captures []*frame.Frame
	Times    []float64
	Exposure float64
	// StoredFrames is how many distinct drive frames the display stored
	// for the displayed frames; the rest were repeats appended by
	// reference (display.Display.StoredFrames).
	StoredFrames int
}

// Recycle puts every capture back into p (typically the shared pipeline
// pool the captures came from) once decoding is done, and clears the
// capture slice so the frames cannot be used after their return. A nil
// pool drops the frames.
func (r *Result) Recycle(p *frame.Pool) {
	for i, f := range r.Captures {
		p.Put(f)
		r.Captures[i] = nil
	}
	r.Captures = r.Captures[:0]
}

// Simulate runs a multiplexer for nDisplayFrames through the link and
// captures the whole sequence: the standard experiment entry point. The
// renderer pushes display frames while the capture schedule runs every
// capture whose window they cover behind it (see Config.Workers).
func Simulate(m *core.Multiplexer, nDisplayFrames int, cfg Config) (*Result, error) {
	link, err := New(cfg)
	if err != nil {
		return nil, err
	}
	s := newSchedule(link.Display, link.Camera, cfg.CameraStart, cfg.Impair, cfg.Workers,
		float64(nDisplayFrames)/cfg.Display.RefreshHz)
	for k := 0; k < nDisplayFrames; k++ {
		// PushFrame recycles every frame it renders and appends certified
		// repeats by reference (core.Multiplexer.PushFrame).
		if err := m.PushFrame(link.Display, k); err != nil {
			s.pool.Wait()
			return nil, fmt.Errorf("channel: frame %d: %w", k, err)
		}
		s.advance(k + 1)
	}
	if len(s.times) == 0 {
		return nil, fmt.Errorf("channel: displayed duration too short for any capture")
	}
	caps, times := s.finish()
	return &Result{Captures: caps, Times: times, Exposure: cfg.Camera.Exposure,
		StoredFrames: link.Display.StoredFrames()}, nil
}
