package core

import (
	"fmt"

	"inframe/internal/display"
	"inframe/internal/fixed"
	"inframe/internal/frame"
	"inframe/internal/parallel"
	"inframe/internal/video"
	"inframe/internal/waveform"
)

// Params are the tunable InFrame transmitter parameters from §3.2–3.3.
type Params struct {
	// Layout fixes the data frame geometry.
	Layout Layout
	// Delta is the chessboard amplitude δ in 8-bit drive units.
	Delta float64
	// Tau is the smoothing cycle τ: display frames per data frame. Even,
	// at least 2. The first τ/2 frames of a period are steady; the last
	// τ/2 carry the envelope transition to the next data frame.
	Tau int
	// Shape selects the transition envelope (paper: half square-root
	// raised cosine).
	Shape waveform.Shape
	// VideoFrameRatio is how many display frames repeat each video frame
	// (paper: 120 Hz display / 30 FPS video = 4).
	VideoFrameRatio int
	// Workers bounds the render worker pool: per-Block-row chessboard
	// application and headroom computation fan out across this many
	// goroutines. 0 means GOMAXPROCS; 1 forces the sequential path. Output
	// is bit-identical at any worker count (see internal/parallel).
	Workers int
	// Pool supplies the render's frame buffers: the video buffer and delta
	// plane, and every output frame of Frame, which Recycle Puts back, so
	// a steady-state Frame + Push loop reuses the same buffers forever.
	// PushFrame (and so PushTo and the channel simulator) renders straight
	// into the display's drive storage and takes no output frame. Nil
	// means a private pool: callers that keep every rendered frame
	// (Render) simply never recycle. Share one pool across mux, camera and
	// receiver to share buffers end to end.
	Pool *frame.Pool
}

// DefaultParams returns the paper's recommended operating point
// (δ=20, τ=12, SRRC smoothing) for the given layout.
func DefaultParams(l Layout) Params {
	return Params{Layout: l, Delta: 20, Tau: 12, Shape: waveform.SqrtRaisedCosine, VideoFrameRatio: 4}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if err := p.Layout.Validate(); err != nil {
		return err
	}
	if p.Delta <= 0 || p.Delta > 127 {
		return fmt.Errorf("core: Delta must be in (0,127], got %v", p.Delta)
	}
	if p.Tau < 2 || p.Tau%2 != 0 {
		return fmt.Errorf("core: Tau must be even and >= 2, got %d", p.Tau)
	}
	if p.VideoFrameRatio < 1 {
		return fmt.Errorf("core: VideoFrameRatio must be >= 1, got %d", p.VideoFrameRatio)
	}
	if p.Workers < 0 {
		return fmt.Errorf("core: Workers must be non-negative, got %d", p.Workers)
	}
	return nil
}

// Multiplexer combines a video source and a data stream into the displayed
// frame sequence (Fig. 2): each video frame is duplicated VideoFrameRatio
// times, and every displayed frame carries ±D with the complementary sign
// alternating per display frame.
//
// Rendering is pair-aware and incremental (DESIGN.md §5j): the unsigned
// chessboard delta D of the current smoothing state is cached in one pooled
// frame and each displayed frame is produced by a single fused pass
// out = clamp(V + sign·D), so the two frames of a complementary pair share
// one delta render, and a Block whose clipped amplitude is unchanged since
// the previous frame is never rewritten.
type Multiplexer struct {
	p     Params
	video video.Source
	data  Stream
	pool  *frame.Pool

	// cached per-video-frame state
	videoIdx int
	vframe   *frame.Frame
	// vbuf is the persistent video buffer when the source supports
	// in-place rendering (video.IntoSource); nil means the source
	// allocates each video frame itself.
	vbuf     *frame.Frame
	headroom []float32 // per-block clipping-limited amplitude bound

	// delta is the cached unsigned chessboard plane: the clipped smoothed
	// amplitude at every chessboard-on pixel, zero elsewhere. Off-chess
	// pixels are never written after the pooled (zeroed) Get, so a Block
	// rewrite only touches its on-pixels. deltaAmp remembers the amplitude
	// each Block's pixels currently hold; -1 means "never rendered", which
	// no clipped amplitude (>= 0) can equal, forcing the first write.
	delta    *frame.Frame
	deltaAmp []float32

	// rowBlocks / rowSkips are per-Block-row scratch counters for the render
	// fan-out: workers write disjoint rows, and the sequential sum into
	// stats afterwards keeps the totals deterministic at any worker count.
	rowBlocks []int64
	rowSkips  []int64
	stats     RenderStats

	// Repeat certification (DESIGN.md §5j): prevK is the last refreshed
	// display frame, lastChange the last frame whose refresh changed an
	// input of the output sweep (video pixels or a delta Block) or broke
	// the consecutive run, and pushed the last two frames PushFrame put on
	// a display, oldest first.
	prevK      int
	lastChange int
	pushed     [2]pushRecord
}

// pushRecord identifies one frame PushFrame appended: the display, the
// display frame index, and the display's frame count right after it. The
// records keep the last display reachable until two later pushes replace
// them.
type pushRecord struct {
	d *display.Display
	k int
	n int
}

// RenderStats counts the incremental renderer's work avoidance since the
// multiplexer was built. Totals are deterministic for a given frame
// sequence regardless of Workers.
type RenderStats struct {
	// Blocks is the number of per-frame Block envelope evaluations;
	// BlocksSkipped counts those whose cached delta pixels were already at
	// the wanted amplitude, so no pixels were rewritten.
	Blocks, BlocksSkipped int64
	// HeadroomBlocks counts Block headroom scans performed;
	// HeadroomSkipped counts scans avoided because the video source's
	// DirtyRegion hint proved the Block's pixels unchanged.
	HeadroomBlocks, HeadroomSkipped int64
	// VideoRefreshes counts video-frame loads; VideoSkipped counts loads
	// avoided entirely (the source certified the frame identical to the
	// cached one).
	VideoRefreshes, VideoSkipped int64
}

// RenderStats returns a snapshot of the incremental-render counters.
func (m *Multiplexer) RenderStats() RenderStats { return m.stats }

// SkipRate returns the fraction of Block renders avoided by the delta
// cache, or 0 before any frame has been rendered.
func (s RenderStats) SkipRate() float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.BlocksSkipped) / float64(s.Blocks)
}

// NewMultiplexer builds a multiplexer. The video source must match the
// layout's panel size.
func NewMultiplexer(p Params, src video.Source, data Stream) (*Multiplexer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	w, h := src.Size()
	if w != p.Layout.FrameW || h != p.Layout.FrameH {
		return nil, fmt.Errorf("core: video %dx%d does not match layout panel %dx%d",
			w, h, p.Layout.FrameW, p.Layout.FrameH)
	}
	pool := p.Pool
	if pool == nil {
		pool = frame.NewPool()
	}
	return &Multiplexer{p: p, video: src, data: data, pool: pool, videoIdx: -1, prevK: -1}, nil
}

// Params returns the transmitter parameters.
func (m *Multiplexer) Params() Params { return m.p }

// DataFrameIndex returns which data frame display frame k belongs to.
func (m *Multiplexer) DataFrameIndex(k int) int { return k / m.p.Tau }

// envelopeAmplitude computes §3.2's smoothed pre-clipping amplitude of
// Block (bx, by) at display frame k: steady during the first τ/2 frames of
// the data period, transitioning toward the next data frame's level
// afterwards. Shared by the grayscale and color multiplexers.
func envelopeAmplitude(p Params, data Stream, bx, by, k int) float64 {
	d := k / p.Tau
	return envelopeBetween(p, data.DataFrame(d), data.DataFrame(d+1), bx, by, k)
}

// envelopeBetween is envelopeAmplitude over pre-resolved current/next data
// frames. Resolving the frames once per rendered frame (instead of once per
// Block) keeps Stream implementations with per-call work (whitening, cache
// fills) off the per-Block path, and makes the Block fan-out safe: workers
// read the two frames but never touch the Stream.
func envelopeBetween(p Params, cur, next *DataFrame, bx, by, k int) float64 {
	tau := p.Tau
	j := k % tau
	c := cur.Bit(bx, by)
	a0 := 0.0
	if c {
		a0 = p.Delta
	}
	half := tau / 2
	if j < half {
		return a0
	}
	n := next.Bit(bx, by)
	if n == c {
		return a0
	}
	a1 := 0.0
	if n {
		a1 = p.Delta
	}
	u := float64(j-half+1) / float64(half)
	return p.Shape.Between(a0, a1, u)
}

// refreshVideo loads the video frame for display frame k and recomputes the
// per-block clipping headroom: the largest amplitude a such that v±a stays
// within [0,255] for every chessboard-on pixel of the block (§3.3's local
// amplitude adjustment for bright and dark areas).
//
// When the source is a video.RegionSource and certifies every video-frame
// transition since the cached frame, the refresh narrows to the accumulated
// dirty region: an empty union skips the load and all headroom scans, a
// partial union reloads the frame but rescans only intersecting Blocks.
func (m *Multiplexer) refreshVideo(k int) {
	vi := k / m.p.VideoFrameRatio
	if vi == m.videoIdx {
		return
	}
	prev := m.videoIdx
	m.videoIdx = vi
	l := m.p.Layout
	// Accumulate the dirty hint across every skipped-over video frame: the
	// multiplexer may jump several video indices between renders (Frame is
	// random-access), and soundness requires covering each transition. Any
	// uncertified step — including backwards jumps — degrades to a full
	// refresh.
	var dirty video.Region
	dirtyOK := false
	if rs, ok := m.video.(video.RegionSource); ok && m.vframe != nil && m.headroom != nil && vi > prev {
		dirtyOK = true
		for j := prev + 1; j <= vi; j++ {
			r, ok := rs.DirtyRegion(j)
			if !ok {
				dirtyOK = false
				break
			}
			dirty = dirty.Union(r)
		}
	}
	if dirtyOK && dirty.Empty() {
		// Frame vi is pixel-identical to the cached frame: keep the video
		// buffer, the headroom table and the delta cache untouched.
		m.stats.VideoSkipped++
		m.stats.HeadroomSkipped += int64(l.NumBlocks())
		return
	}
	m.stats.VideoRefreshes++
	if src, ok := m.video.(video.IntoSource); ok {
		// In-place-capable source: render into one persistent pooled
		// buffer instead of allocating a frame per video frame.
		if m.vbuf == nil {
			m.vbuf = m.pool.Get(m.p.Layout.FrameW, m.p.Layout.FrameH)
		}
		src.FrameInto(vi, m.vbuf)
		m.vframe = m.vbuf
	} else {
		m.vframe = m.video.Frame(vi)
	}
	if m.headroom == nil {
		m.headroom = make([]float32, l.NumBlocks())
	}
	m.ensureScratch()
	// Each Block row writes a disjoint headroom span, so the fan-out is an
	// ordered merge: bit-identical at any worker count. One worker runs
	// the rows inline, with no fan-out closure to allocate.
	if parallel.Resolve(m.p.Workers) <= 1 {
		for by := range m.rowBlocks {
			m.rowBlocks[by], m.rowSkips[by] = m.headroomRow(by, dirty, dirtyOK)
		}
	} else {
		// Fresh copies the closure captures by value: capturing the
		// reassigned dirty and dirtyOK would move them to the heap on
		// every refresh, inline path included.
		region, certified := dirty, dirtyOK
		parallel.For(m.p.Workers, l.BlocksY, func(by int) {
			m.rowBlocks[by], m.rowSkips[by] = m.headroomRow(by, region, certified)
		})
	}
	for by := 0; by < l.BlocksY; by++ {
		m.stats.HeadroomBlocks += m.rowBlocks[by]
		m.stats.HeadroomSkipped += m.rowSkips[by]
	}
}

// headroomRow rescans the clipping headroom of Block row by, skipping the
// Blocks a certified dirty region proves unchanged; it returns the row's
// scanned and skipped Block counts.
func (m *Multiplexer) headroomRow(by int, dirty video.Region, dirtyOK bool) (scanned, skipped int64) {
	l := m.p.Layout
	ps := l.PixelSize
	for bx := 0; bx < l.BlocksX; bx++ {
		x0, y0, w, h := l.BlockRect(bx, by)
		if dirtyOK && !dirty.Intersects(x0, y0, w, h) {
			// Every certified transition left this Block's pixels
			// unchanged, so its headroom (computed from exactly those
			// pixels) is still valid.
			skipped++
			continue
		}
		scanned++
		head := float32(255)
		for y := y0; y < y0+h; y++ {
			pj := y / ps
			rowBase := y * l.FrameW
			for x := x0; x < x0+w; x++ {
				if !ChessOn(x/ps, pj) {
					continue
				}
				v := m.vframe.Pix[rowBase+x]
				if hi := 255 - v; hi < head {
					head = hi
				}
				if v < head {
					head = v
				}
			}
		}
		if head < 0 {
			head = 0
		}
		m.headroom[by*l.BlocksX+bx] = head
	}
	return scanned, skipped
}

// ensureScratch sizes the per-Block-row counter scratch and the delta-cache
// state on first use.
func (m *Multiplexer) ensureScratch() {
	l := m.p.Layout
	if m.rowBlocks == nil {
		m.rowBlocks = make([]int64, l.BlocksY)
		m.rowSkips = make([]int64, l.BlocksY)
	}
	if m.delta == nil {
		// The pooled frame arrives zeroed; off-chess pixels are never
		// written afterwards, so they carry zero delta forever.
		m.delta = m.pool.Get(l.FrameW, l.FrameH)
		m.deltaAmp = make([]float32, l.NumBlocks())
		for i := range m.deltaAmp {
			m.deltaAmp[i] = -1
		}
	}
}

// renderDelta refreshes a cached unsigned delta plane for display frame k:
// each Block's clipped envelope amplitude is compared against the amplitude
// its pixels already hold (deltaAmp), and only stale Blocks are rewritten.
// Block rows cover disjoint pixel bands, disjoint deltaAmp spans and
// disjoint counter slots, so the fan-out is an ordered merge — bit-identical
// at any worker count. rowBlocks[by] / rowSkips[by] receive each row's
// evaluated and skipped Block counts for the caller to fold into its stats.
// Shared by the grayscale and color multiplexers: headroom is whatever
// channel-aware bound the caller computed.
func renderDelta(p Params, cur, next *DataFrame, k int, headroom, deltaAmp []float32, delta *frame.Frame, rowBlocks, rowSkips []int64) {
	if parallel.Resolve(p.Workers) <= 1 {
		// Inline rows: no fan-out closure to allocate per frame.
		for by := range rowBlocks {
			rowBlocks[by], rowSkips[by] = renderDeltaRow(p, cur, next, k, by, headroom, deltaAmp, delta)
		}
		return
	}
	parallel.For(p.Workers, p.Layout.BlocksY, func(by int) {
		rowBlocks[by], rowSkips[by] = renderDeltaRow(p, cur, next, k, by, headroom, deltaAmp, delta)
	})
}

// renderDeltaRow is renderDelta for Block row by; it returns the row's
// evaluated and skipped Block counts.
func renderDeltaRow(p Params, cur, next *DataFrame, k, by int, headroom, deltaAmp []float32, delta *frame.Frame) (total, skipped int64) {
	l := p.Layout
	ps := l.PixelSize
	for bx := 0; bx < l.BlocksX; bx++ {
		total++
		a := envelopeBetween(p, cur, next, bx, by, k)
		if head := float64(headroom[by*l.BlocksX+bx]); a > head {
			a = head
		}
		if a < 0 {
			a = 0
		}
		want := float32(a)
		b := by*l.BlocksX + bx
		//lint:ignore floateq cache key: both sides are the same clipped envelope computation, equal means the stored pixels are exactly right
		if want == deltaAmp[b] {
			skipped++
			continue
		}
		deltaAmp[b] = want
		x0, y0, w, h := l.BlockRect(bx, by)
		for y := y0; y < y0+h; y++ {
			pj := y / ps
			rowBase := y * l.FrameW
			for x := x0; x < x0+w; x++ {
				if ChessOn(x/ps, pj) {
					delta.Pix[rowBase+x] = want
				}
			}
		}
	}
	return total, skipped
}

// refresh advances the per-frame render state to display frame k: the video
// frame and headroom table (refreshVideo), the cached delta plane
// (renderDelta) and the RenderStats counters. It runs for every frame,
// rendered or repeated, and records in lastChange whether the output
// sweep's inputs moved.
func (m *Multiplexer) refresh(k int) {
	if k < 0 {
		panic("core: negative display frame index")
	}
	if k != m.prevK+1 {
		m.lastChange = k
	}
	m.prevK = k
	loads := m.stats.VideoRefreshes
	m.refreshVideo(k)
	l := m.p.Layout
	m.ensureScratch()
	// Resolve the two data frames once: workers must not touch the Stream
	// (implementations may cache or whiten per call).
	cur := m.data.DataFrame(k / m.p.Tau)
	next := m.data.DataFrame(k/m.p.Tau + 1)
	// Delta refresh. A Block row covers a disjoint band of delta pixel rows
	// and a disjoint span of deltaAmp, so rows fan out with no overlap and
	// the result is bit-identical at any worker count.
	renderDelta(m.p, cur, next, k, m.headroom, m.deltaAmp, m.delta, m.rowBlocks, m.rowSkips)
	var rewritten int64
	for by := 0; by < l.BlocksY; by++ {
		m.stats.Blocks += m.rowBlocks[by]
		m.stats.BlocksSkipped += m.rowSkips[by]
		rewritten += m.rowBlocks[by] - m.rowSkips[by]
	}
	if rewritten > 0 || m.stats.VideoRefreshes != loads {
		m.lastChange = k
	}
}

// sweep renders display frame k from the refreshed state: clone, signed add
// and clamp fused into one pass out = clamp(V + sign·D) over a pooled frame.
// Pixel rows are disjoint, so the fan-out is an ordered merge.
func (m *Multiplexer) sweep(k int) *frame.Frame {
	l := m.p.Layout
	sign := frameSign(k)
	out := m.pool.Get(l.FrameW, l.FrameH)
	vp, dp, op := m.vframe.Pix, m.delta.Pix, out.Pix
	w := l.FrameW
	parallel.For(m.p.Workers, l.FrameH, func(y int) {
		base := y * w
		for i := base; i < base+w; i++ {
			v := vp[i] + sign*dp[i]
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			op[i] = v
		}
	})
	return out
}

// Frame renders display frame k: the current video frame plus the signed,
// clipped, smoothed chessboard of every Block. The returned frame is drawn
// from the multiplexer's pool; the caller owns it until it hands it back
// via Recycle (or keeps it forever — Render's contract).
//
// The render is incremental: refresh updates the cached unsigned delta
// plane, rewriting only Blocks whose clipped amplitude changed since the
// previous render (during the steady half of a smoothing cycle on a static
// video that is zero Blocks); sweep fuses clone, signed add and clamp into
// one pass out = clamp(V + sign·D). The complementary pair's two frames
// differ only in sign, so they share one delta refresh. The output is
// bit-identical to the direct clone+add+clamp formulation — see DESIGN.md
// §5j for the argument and TestFixedPointBitIdentity for the adversarial
// check.
func (m *Multiplexer) Frame(k int) *frame.Frame {
	m.refresh(k)
	return m.sweep(k)
}

// frameSign is the sign of display frame k's chessboard: + on even
// frames, − on odd, so each complementary pair fuses back to the video.
func frameSign(k int) float32 {
	if k%2 == 1 {
		return -1
	}
	return 1
}

// sweepDrive is sweep written straight into 8-bit drive storage: dst[i] =
// Round8(V + sign·D), the byte display.Push stores for sweep's pixel
// clamp(V + sign·D). Round8 saturates to [0,255] (and sends NaN to 0, as
// the clamp leaves NaN for Push's Round8 to do), so the clamp is implied.
// On one worker the rows run inline, without a fan-out closure.
func (m *Multiplexer) sweepDrive(k int, dst []uint8) {
	l := m.p.Layout
	sign := frameSign(k)
	vp, dp := m.vframe.Pix, m.delta.Pix
	if parallel.Resolve(m.p.Workers) <= 1 {
		driveRows(dst, vp, dp, sign)
		return
	}
	w := l.FrameW
	parallel.ForChunked(m.p.Workers, l.FrameH, func(lo, hi int) {
		driveRows(dst[lo*w:hi*w], vp[lo*w:hi*w], dp[lo*w:hi*w], sign)
	})
}

// driveRows quantizes V + sign·D into dst over one span of pixels.
func driveRows(dst []uint8, vp, dp []float32, sign float32) {
	vp, dp = vp[:len(dst)], dp[:len(dst)]
	for i := range dst {
		dst[i] = fixed.Round8(vp[i] + sign*dp[i])
	}
}

// PushFrame appends display frame k to d. When the repeat rule certifies
// that frame k equals frame k−2 byte for byte, the display re-appends frame
// k−2's drive storage by reference (display.Repeat) and the sweep is
// skipped; otherwise the sweep runs straight into a drive slot the display
// reserves (sweepDrive), which it then commits. Either way the display
// history is exactly what Frame + Push + Recycle would leave, and no float
// frame is rendered.
//
// The rule needs no pixel comparison. The sweep's inputs are the video
// frame, the delta plane and the sign, and the sign of k equals that of
// k−2. So frame k repeats when k ≥ 2, the refreshes of frames k−1 and k
// ran consecutively and changed neither the video pixels nor a delta Block
// (lastChange ≤ k−2), and the display's last two drive frames are this
// multiplexer's frames k−2 and k−1, pushed by PushFrame onto d with
// nothing appended since. A foreign Push, a random-access Frame in between
// or a second display therefore always forces a full render. The refresh
// runs either way, so RenderStats match a Frame + Push replay.
func (m *Multiplexer) PushFrame(d *display.Display, k int) error {
	m.refresh(k)
	var err error
	if m.repeatable(d, k) {
		err = d.Repeat(2)
	} else {
		var s display.Slot
		if s, err = d.Reserve(m.p.Layout.FrameW, m.p.Layout.FrameH); err == nil {
			m.sweepDrive(k, s.Pix)
			err = d.Commit(s)
		}
	}
	if err != nil {
		return err
	}
	m.pushed[0], m.pushed[1] = m.pushed[1], pushRecord{d: d, k: k, n: d.NumFrames()}
	return nil
}

// repeatable reports whether PushFrame may append frame k as a repeat of
// frame k−2 (see PushFrame for the rule).
func (m *Multiplexer) repeatable(d *display.Display, k int) bool {
	if k < 2 || m.lastChange > k-2 {
		return false
	}
	n := d.NumFrames()
	return m.pushed[1] == pushRecord{d: d, k: k - 1, n: n} &&
		m.pushed[0] == pushRecord{d: d, k: k - 2, n: n - 1}
}

// Recycle returns a frame obtained from Frame to the multiplexer's pool
// for reuse by a later render. Call it once the frame's contents have been
// consumed (e.g. pushed onto a display, which quantizes them into its
// drive history); the frame must not be used afterwards.
func (m *Multiplexer) Recycle(f *frame.Frame) { m.pool.Put(f) }

// Render produces display frames [0, n) in order. The caller owns every
// returned frame (they are never recycled), so Render allocates n buffers;
// use PushTo or the channel simulator for allocation-free steady state.
func (m *Multiplexer) Render(n int) []*frame.Frame {
	frames := make([]*frame.Frame, n)
	for k := 0; k < n; k++ {
		frames[k] = m.Frame(k)
	}
	return frames
}

// PushTo pushes display frames [0, n) straight onto a display simulator
// through PushFrame: each rendered frame is swept straight into the
// display's drive storage, and certified repeats are appended by reference
// without a sweep.
func (m *Multiplexer) PushTo(d *display.Display, n int) error {
	for k := 0; k < n; k++ {
		if err := m.PushFrame(d, k); err != nil {
			//lint:ignore hotalloc error path runs at most once, then the loop exits
			return fmt.Errorf("core: pushing frame %d: %w", k, err)
		}
	}
	return nil
}
