package frame

import (
	"fmt"
	"math"
)

// BoxBlur returns a copy of f blurred with a (2r+1)×(2r+1) box filter.
// Edges are handled by clamping coordinates (replicate padding). r <= 0
// returns a plain clone. This is the "smoothing" primitive the InFrame
// demultiplexer subtracts to expose chessboard energy (§3.3).
func BoxBlur(f *Frame, r int) *Frame {
	out := New(f.W, f.H)
	BoxBlurInto(f, out, r, nil)
	return out
}

// BoxBlurInto blurs f into dst (same size as f, panics otherwise) drawing
// its two scratch buffers — the intermediate row-blurred plane and the
// per-column running sums — from p, so a pooled steady-state blur
// allocates nothing. dst must not alias f. A nil pool allocates the
// scratch.
func BoxBlurInto(f, dst *Frame, r int, p *Pool) {
	if !f.SameSize(dst) {
		panic("frame.BoxBlurInto: size mismatch")
	}
	if r <= 0 {
		f.CloneInto(dst)
		return
	}
	// Two separable passes: horizontal then vertical, each using a sliding
	// running sum so the cost is O(W*H) independent of r. The vertical pass
	// sweeps rows in order, one running sum per column.
	w, h := f.W, f.H
	tmp := p.Get(w, h)
	for y := 0; y < h; y++ {
		BoxRow(f.Row(y), tmp.Row(y), r)
	}
	sums := p.Get(w, 1)
	cols := NewBoxCols(sums.Pix, r, h)
	cols.Start(tmp.Pix[:BoxColsStartRows(r, h)*w])
	for y := 0; y < h; y++ {
		cols.Emit(dst.Row(y), 0)
		if y+1 < h {
			add, sub := cols.Step(y)
			cols.Slide(tmp.Row(add), tmp.Row(sub))
		}
	}
	p.Put(sums)
	p.Put(tmp)
}

// BoxRow writes the horizontal (2r+1)-tap box average of src into dst
// (r > 0, len(dst) == len(src), no aliasing), replicating the edge pixels:
// one running float32 sum, seeded with taps −r..r and then slid one pixel
// at a time. Only the edges clamp their tap indices.
func BoxRow(src, dst []float32, r int) {
	w := len(src)
	dst = dst[:w]
	inv := 1 / float32(2*r+1)
	var sum float32
	for i := -r; i <= r; i++ {
		sum += src[clampIdx(i, w)]
	}
	// Interior: x−r ≥ 0 and x+r+1 < w, so neither tap needs a clamp.
	lo := min(r, w)
	hi := max(w-r-1, lo)
	for x := 0; x < lo; x++ {
		dst[x] = sum * inv
		sum += src[clampIdx(x+r+1, w)] - src[clampIdx(x-r, w)]
	}
	for x := lo; x < hi; x++ {
		dst[x] = sum * inv
		sum += src[x+r+1] - src[x-r]
	}
	for x := hi; x < w; x++ {
		dst[x] = sum * inv
		sum += src[clampIdx(x+r+1, w)] - src[clampIdx(x-r, w)]
	}
}

// BoxCols is the vertical pass of the box blur over rows visited in
// ascending order: one running float32 sum per column, seeded with rows
// clamp(−r)..clamp(r) and slid one row at a time. Each column sees the
// float32 operations of a walk down that column, in the same order, so a
// row-major sweep and a column-major one are bit-identical.
type BoxCols struct {
	sum  []float32
	r, h int
	inv  float32
}

// NewBoxCols returns the vertical pass of a radius-r (r > 0) blur over h
// rows as wide as sum, which holds the running sums.
func NewBoxCols(sum []float32, r, h int) BoxCols {
	return BoxCols{sum: sum, r: r, h: h, inv: 1 / float32(2*r+1)}
}

// BoxColsStartRows returns how many leading rows Start reads: rows
// 0..min(r, h−1).
func BoxColsStartRows(r, h int) int { return min(r, h-1) + 1 }

// Start seeds the sums from rows, which holds rows 0..BoxColsStartRows−1
// back to back.
func (b BoxCols) Start(rows []float32) {
	w := len(b.sum)
	clear(b.sum)
	for i := -b.r; i <= b.r; i++ {
		y := clampIdx(i, b.h)
		for x, v := range rows[y*w : (y+1)*w] {
			b.sum[x] += v
		}
	}
}

// Emit writes columns [x0, x0+len(dst)) of the current blurred row into
// dst.
func (b BoxCols) Emit(dst []float32, x0 int) {
	sum := b.sum[x0 : x0+len(dst)]
	for x, s := range sum {
		dst[x] = s * b.inv
	}
}

// Step returns the rows Slide adds and removes to move the sums from
// output row y to y+1: clamp(y+r+1) and clamp(y−r).
func (b BoxCols) Step(y int) (add, sub int) {
	return clampIdx(y+b.r+1, b.h), clampIdx(y-b.r, b.h)
}

// Slide moves the sums one row down: sum += add − sub per column.
func (b BoxCols) Slide(add, sub []float32) {
	sum := b.sum
	add, sub = add[:len(sum)], sub[:len(sum)]
	for x := range sum {
		sum[x] += add[x] - sub[x]
	}
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Resample returns f resampled to w×h using area averaging for reduction and
// bilinear interpolation for enlargement. This models the camera sensor
// seeing the screen at a different resolution than the display's.
func Resample(f *Frame, w, h int) *Frame {
	out := New(w, h)
	ResampleInto(f, out)
	return out
}

// ResampleInto resamples f into dst, whose dimensions select the target
// size: area averaging when neither axis grows, bilinear interpolation
// when one does, a straight copy when the sizes match. dst must not alias
// f. It builds the Resampler for the size pair on every call.
func ResampleInto(f, dst *Frame) {
	NewResampler(f.W, f.H, dst.W, dst.H).Into(f, dst)
}

// resampleKind selects a Resampler's row kernel.
type resampleKind uint8

const (
	resampleCopy     resampleKind = iota // equal sizes
	resampleBilinear                     // some axis enlarges
	resampleArea                         // general area tap loop
	resampleArea2                        // two consecutive taps per coordinate on both axes
	resampleArea3                        // three consecutive taps per coordinate on both axes
)

// Resampler resamples frames of one fixed source size to one fixed
// destination size, with the area-reduction taps built once. It is
// immutable, so any number of goroutines may share one.
//
// It works a row at a time: SrcRows names the consecutive source rows an
// output row reads and RowInto computes that row from them, so a caller
// that produces its source rows in order (the camera's capture stream)
// never holds a full source plane. Into is the same two calls per row.
//
// NewResampler also classifies the taps: when every output coordinate on
// both axes averages exactly n consecutive inputs, RowInto runs an
// unrolled kernel for that n instead of the general tap loop. n = 2 covers
// the 1.5× and 2× reductions (960×540 → 640×360 and 480×270), n = 3 the
// 2.5× and 3× reductions (→ 384×216 and 320×180). A kernel does the
// general loop's float64 multiply-adds in the same order from the same
// zero start, and keeps the per-pixel area and the sum/area division, so
// its output is bit-identical; every other table (97×61 → 40×33, say)
// runs the general loop.
type Resampler struct {
	srcW, srcH, dstW, dstH int
	kind                   resampleKind
	area                   *areaTaps // nil unless the sizes select area reduction
	// sx, sy are the bilinear source steps per output pixel.
	sx, sy float64
	// maxRows is the most source rows any output row reads.
	maxRows int
}

// NewResampler returns a resampler from srcW×srcH frames to dstW×dstH.
func NewResampler(srcW, srcH, dstW, dstH int) *Resampler {
	r := &Resampler{srcW: srcW, srcH: srcH, dstW: dstW, dstH: dstH}
	switch {
	case dstW == srcW && dstH == srcH:
		r.kind = resampleCopy
	case dstW <= srcW && dstH <= srcH:
		r.area = newAreaTaps(srcW, srcH, dstW, dstH)
		r.kind = resampleArea
		if n := r.area.x.uniform(); n == r.area.y.uniform() {
			switch n {
			case 2:
				r.kind = resampleArea2
			case 3:
				r.kind = resampleArea3
			}
		}
	default:
		r.kind = resampleBilinear
		r.sx = float64(srcW-1) / float64(max(dstW-1, 1))
		r.sy = float64(srcH-1) / float64(max(dstH-1, 1))
	}
	for oy := 0; oy < dstH; oy++ {
		_, n := r.SrcRows(oy)
		r.maxRows = max(r.maxRows, n)
	}
	return r
}

// Fits reports whether r resamples f into dst.
func (r *Resampler) Fits(f, dst *Frame) bool { return r.Maps(f.W, f.H, dst.W, dst.H) }

// Maps reports whether r resamples srcW×srcH frames to dstW×dstH.
func (r *Resampler) Maps(srcW, srcH, dstW, dstH int) bool {
	return srcW == r.srcW && srcH == r.srcH && dstW == r.dstW && dstH == r.dstH
}

// MaxRows returns the most source rows SrcRows reports for any output row.
func (r *Resampler) MaxRows() int { return r.maxRows }

// SrcRows returns the source rows output row oy reads: rows [lo, lo+n).
// lo never decreases as oy grows.
func (r *Resampler) SrcRows(oy int) (lo, n int) {
	switch r.kind {
	case resampleCopy:
		return oy, 1
	case resampleBilinear:
		y0 := int(float64(oy) * r.sy)
		return y0, min(y0+1, r.srcH-1) - y0 + 1
	}
	yt := &r.area.y
	s, e := yt.off[oy], yt.off[oy+1]
	return yt.idx[s], yt.idx[e-1] - yt.idx[s] + 1
}

// RowInto computes output row oy into dst (length dstW) from src, which
// holds the source rows SrcRows(oy) reports back to back, srcW apart.
// dst must not alias src.
func (r *Resampler) RowInto(oy int, src, dst []float32) {
	dst = dst[:r.dstW]
	switch r.kind {
	case resampleCopy:
		copy(dst, src[:r.srcW])
	case resampleBilinear:
		r.bilinearRow(oy, src, dst)
	case resampleArea2:
		r.area2Row(oy, src, dst)
	case resampleArea3:
		r.area3Row(oy, src, dst)
	default:
		r.areaRow(oy, src, dst)
	}
}

// Into resamples f into dst, one RowInto per output row; it panics when
// the sizes are not the ones r was built for. dst must not alias f.
func (r *Resampler) Into(f, dst *Frame) {
	if !r.Fits(f, dst) {
		panic(fmt.Sprintf("frame: Resampler %dx%d→%dx%d given %dx%d→%dx%d",
			r.srcW, r.srcH, r.dstW, r.dstH, f.W, f.H, dst.W, dst.H))
	}
	for oy := 0; oy < dst.H; oy++ {
		lo, n := r.SrcRows(oy)
		r.RowInto(oy, f.Pix[lo*f.W:(lo+n)*f.W], dst.Row(oy))
	}
}

// axisTaps is the hoisted per-axis weight table of the area resampler: for
// each output coordinate, the contributing input coordinates and their
// overlap weights. The weights depend only on one axis, so computing them
// once per output row/column — instead of once per (output pixel, input
// pixel) pair, where the overlap min/max calls dominated the capture
// profile — leaves the inner loop as pure multiply-accumulate. The taps are
// the exact overlap() values the unhoisted loops computed, visited in the
// same order, so the accumulation is bit-identical.
type axisTaps struct {
	// idx and wgt hold the flattened positive-weight taps; off[o]..off[o+1]
	// is output coordinate o's span.
	idx []int
	wgt []float64
	off []int
}

// buildAxisTaps tabulates one axis: inN input samples reduced to outN
// output samples at scale = inN/outN (≥ 1).
func buildAxisTaps(inN, outN int, scale float64) axisTaps {
	t := axisTaps{
		idx: make([]int, 0, inN+outN),
		wgt: make([]float64, 0, inN+outN),
		off: make([]int, outN+1),
	}
	for o := 0; o < outN; o++ {
		b0 := float64(o) * scale
		b1 := b0 + scale
		for i := int(b0); i < int(math.Ceil(b1)) && i < inN; i++ {
			f := overlap(float64(i), float64(i+1), b0, b1)
			if f <= 0 {
				continue
			}
			t.idx = append(t.idx, i)
			t.wgt = append(t.wgt, f)
		}
		t.off[o+1] = len(t.idx)
	}
	return t
}

// areaTaps holds both axes' taps for one (source, destination) size.
type areaTaps struct{ x, y axisTaps }

func newAreaTaps(srcW, srcH, dstW, dstH int) *areaTaps {
	return &areaTaps{
		x: buildAxisTaps(srcW, dstW, float64(srcW)/float64(dstW)),
		y: buildAxisTaps(srcH, dstH, float64(srcH)/float64(dstH)),
	}
}

// uniform returns n when every output coordinate has exactly n taps over
// consecutive inputs, or 0.
func (t *axisTaps) uniform() int {
	n := t.off[1]
	for o := 0; o+1 < len(t.off); o++ {
		s := t.off[o]
		if t.off[o+1]-s != n {
			return 0
		}
		for j := 1; j < n; j++ {
			if t.idx[s+j] != t.idx[s]+j {
				return 0
			}
		}
	}
	return n
}

// areaRow is the general tap loop: any table. Per output pixel it sums
// weight·value over the y taps (outer) and x taps (inner) in float64 from
// zero, and divides by the summed weights.
func (r *Resampler) areaRow(oy int, src, dst []float32) {
	xt, yt := &r.area.x, &r.area.y
	sw := r.srcW
	ys, ye := yt.off[oy], yt.off[oy+1]
	lo := yt.idx[ys]
	for ox := range dst {
		xs, xe := xt.off[ox], xt.off[ox+1]
		var sum, area float64
		for ti := ys; ti < ye; ti++ {
			fy := yt.wgt[ti]
			row := src[(yt.idx[ti]-lo)*sw : (yt.idx[ti]-lo+1)*sw]
			for tj := xs; tj < xe; tj++ {
				wgt := xt.wgt[tj] * fy
				sum += wgt * float64(row[xt.idx[tj]])
				area += wgt
			}
		}
		dst[ox] = 0
		if area > 0 {
			dst[ox] = float32(sum / area)
		}
	}
}

// area2Row is areaRow for tables of two consecutive taps per output
// coordinate on both axes: the same multiply-adds in the same order
// (y tap outer, x tap inner), unrolled.
func (r *Resampler) area2Row(oy int, src, dst []float32) {
	xt, yt := &r.area.x, &r.area.y
	sw := r.srcW
	ty := 2 * oy
	fy0, fy1 := yt.wgt[ty], yt.wgt[ty+1]
	r0, r1 := src[:sw], src[sw:2*sw]
	for ox := range dst {
		tx := 2 * ox
		x0 := xt.idx[tx]
		wx := xt.wgt[tx : tx+2 : tx+2]
		p0, p1 := r0[x0:x0+2:x0+2], r1[x0:x0+2:x0+2]
		var sum, area float64
		w := wx[0] * fy0
		sum += w * float64(p0[0])
		area += w
		w = wx[1] * fy0
		sum += w * float64(p0[1])
		area += w
		w = wx[0] * fy1
		sum += w * float64(p1[0])
		area += w
		w = wx[1] * fy1
		sum += w * float64(p1[1])
		area += w
		dst[ox] = 0
		if area > 0 {
			dst[ox] = float32(sum / area)
		}
	}
}

// area3Row is area2Row for three consecutive taps per output coordinate on
// both axes.
func (r *Resampler) area3Row(oy int, src, dst []float32) {
	xt, yt := &r.area.x, &r.area.y
	sw := r.srcW
	ty := 3 * oy
	fy := yt.wgt[ty : ty+3 : ty+3]
	rows := src[:3*sw]
	for ox := range dst {
		tx := 3 * ox
		x0 := xt.idx[tx]
		wx := xt.wgt[tx : tx+3 : tx+3]
		var sum, area float64
		for j := 0; j < 3; j++ {
			p := rows[j*sw+x0 : j*sw+x0+3 : j*sw+x0+3]
			w := wx[0] * fy[j]
			sum += w * float64(p[0])
			area += w
			w = wx[1] * fy[j]
			sum += w * float64(p[1])
			area += w
			w = wx[2] * fy[j]
			sum += w * float64(p[2])
			area += w
		}
		dst[ox] = 0
		if area > 0 {
			dst[ox] = float32(sum / area)
		}
	}
}

// bilinearRow interpolates output row oy between the two source rows
// SrcRows(oy) names (one, repeated, on the last source row).
func (r *Resampler) bilinearRow(oy int, src, dst []float32) {
	sw := r.srcW
	fy := float64(oy) * r.sy
	y0 := int(fy)
	y1 := min(y0+1, r.srcH-1)
	wy := float32(fy - float64(y0))
	row0 := src[:sw]
	row1 := src[(y1-y0)*sw : (y1-y0+1)*sw]
	for ox := range dst {
		fx := float64(ox) * r.sx
		x0 := int(fx)
		x1 := min(x0+1, sw-1)
		wx := float32(fx - float64(x0))
		v00 := row0[x0]
		v01 := row0[x1]
		v10 := row1[x0]
		v11 := row1[x1]
		top := v00 + (v01-v00)*wx
		bot := v10 + (v11-v10)*wx
		dst[ox] = top + (bot-top)*wy
	}
}

func overlap(a0, a1, b0, b1 float64) float64 {
	lo := math.Max(a0, b0)
	hi := math.Min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

func bilinearResample(f, out *Frame) {
	w, h := out.W, out.H
	sx := float64(f.W-1) / float64(max(w-1, 1))
	sy := float64(f.H-1) / float64(max(h-1, 1))
	for oy := 0; oy < h; oy++ {
		fy := float64(oy) * sy
		y0 := int(fy)
		y1 := min(y0+1, f.H-1)
		wy := float32(fy - float64(y0))
		row0 := f.Pix[y0*f.W : (y0+1)*f.W]
		row1 := f.Pix[y1*f.W : (y1+1)*f.W]
		orow := out.Pix[oy*w : (oy+1)*w]
		for ox := 0; ox < w; ox++ {
			fx := float64(ox) * sx
			x0 := int(fx)
			x1 := min(x0+1, f.W-1)
			wx := float32(fx - float64(x0))
			v00 := row0[x0]
			v01 := row0[x1]
			v10 := row1[x0]
			v11 := row1[x1]
			top := v00 + (v01-v00)*wx
			bot := v10 + (v11-v10)*wx
			orow[ox] = top + (bot-top)*wy
		}
	}
}

// MAE returns the mean absolute pixel error between two equal-sized frames.
func MAE(a, b *Frame) (float64, error) {
	if !a.SameSize(b) {
		return 0, ErrSizeMismatch
	}
	var s float64
	for i, v := range a.Pix {
		s += math.Abs(float64(v - b.Pix[i]))
	}
	return s / float64(len(a.Pix)), nil
}

// MSE returns the mean squared pixel error between two equal-sized frames.
func MSE(a, b *Frame) (float64, error) {
	if !a.SameSize(b) {
		return 0, ErrSizeMismatch
	}
	var s float64
	for i, v := range a.Pix {
		d := float64(v - b.Pix[i])
		s += d * d
	}
	return s / float64(len(a.Pix)), nil
}

// PSNR returns the peak signal-to-noise ratio in dB between two equal-sized
// frames assuming a 255 peak. Identical frames yield +Inf.
func PSNR(a, b *Frame) (float64, error) {
	mse, err := MSE(a, b)
	if err != nil {
		return 0, err
	}
	//lint:ignore floateq division guard: MSE is a sum of squares, exactly zero iff the frames are identical
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255*255/mse), nil
}

// Average returns the pixel-wise mean of the given frames, which must all
// share one size. It models ideal temporal fusion over the frame set.
func Average(frames ...*Frame) (*Frame, error) {
	if len(frames) == 0 {
		return nil, ErrSizeMismatch
	}
	out := New(frames[0].W, frames[0].H)
	for _, f := range frames {
		if err := out.Add(f); err != nil {
			return nil, err
		}
	}
	out.Scale(1 / float32(len(frames)))
	return out, nil
}

// HighFreqEnergy returns the mean absolute residual of f after subtracting
// its r-radius box blur: the per-pixel high-spatial-frequency energy the
// InFrame detector keys on.
func HighFreqEnergy(f *Frame, r int) float64 {
	sm := BoxBlur(f, r)
	var s float64
	for i, v := range f.Pix {
		s += math.Abs(float64(v - sm.Pix[i]))
	}
	return s / float64(len(f.Pix))
}
