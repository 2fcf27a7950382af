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
// column sliding window — from p, so a pooled steady-state blur allocates
// nothing. dst must not alias f. A nil pool allocates the scratch.
func BoxBlurInto(f, dst *Frame, r int, p *Pool) {
	if !f.SameSize(dst) {
		panic("frame.BoxBlurInto: size mismatch")
	}
	if r <= 0 {
		f.CloneInto(dst)
		return
	}
	// Two separable passes: horizontal then vertical, each using a sliding
	// running sum so the cost is O(W*H) independent of r.
	tmp := p.Get(f.W, f.H)
	blurRows(f, tmp, r)
	// The column window is a length-H scalar buffer; a 1×H pooled frame
	// serves exactly that without a second buffer type in the pool.
	colf := p.Get(1, f.H)
	blurCols(tmp, dst, r, colf.Pix)
	p.Put(colf)
	p.Put(tmp)
}

func blurRows(src, dst *Frame, r int) {
	w := src.W
	inv := 1 / float32(2*r+1)
	for y := 0; y < src.H; y++ {
		row := src.Pix[y*w : (y+1)*w]
		out := dst.Pix[y*w : (y+1)*w]
		var sum float32
		for i := -r; i <= r; i++ {
			sum += row[clampIdx(i, w)]
		}
		for x := 0; x < w; x++ {
			out[x] = sum * inv
			sum += row[clampIdx(x+r+1, w)] - row[clampIdx(x-r, w)]
		}
	}
}

func blurCols(src, dst *Frame, r int, col []float32) {
	w, h := src.W, src.H
	inv := 1 / float32(2*r+1)
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			col[y] = src.Pix[y*w+x]
		}
		var sum float32
		for i := -r; i <= r; i++ {
			sum += col[clampIdx(i, h)]
		}
		for y := 0; y < h; y++ {
			dst.Pix[y*w+x] = sum * inv
			sum += col[clampIdx(y+r+1, h)] - col[clampIdx(y-r, h)]
		}
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
// size: area averaging for reduction, bilinear interpolation for
// enlargement, a straight copy when the sizes match. dst must not alias f.
func ResampleInto(f, dst *Frame) {
	w, h := dst.W, dst.H
	if w == f.W && h == f.H {
		f.CloneInto(dst)
		return
	}
	if w <= f.W && h <= f.H {
		areaResample(f, dst, newAreaTaps(f.W, f.H, w, h))
		return
	}
	bilinearResample(f, dst)
}

// Resampler is ResampleInto for one fixed source and destination size,
// with the area-reduction taps built once instead of on every call. It is
// immutable, so any number of goroutines may share one; output is
// bit-identical to ResampleInto.
//
// NewResampler also classifies the taps: when every output coordinate on
// both axes averages exactly n consecutive inputs, Into runs an unrolled
// kernel for that n instead of the general tap loop. n = 2 covers the 1.5×
// and 2× reductions (960×540 → 640×360 and 480×270), n = 3 the 2.5× and
// 3× reductions (→ 384×216 and 320×180). A kernel does the general loop's float64
// multiply-adds in the same order from the same zero start, and keeps the
// per-pixel area and the sum/area division, so its output is bit-identical;
// every other table (97×61 → 40×33, say) runs the general loop.
type Resampler struct {
	srcW, srcH, dstW, dstH int
	area                   *areaTaps // nil unless the sizes select area reduction
	// unrolled is the taps per output coordinate (2 or 3) when every
	// coordinate on both axes averages that many consecutive inputs, so an
	// unrolled kernel applies; 0 runs the general tap loop.
	unrolled int
}

// NewResampler returns a resampler from srcW×srcH frames to dstW×dstH.
func NewResampler(srcW, srcH, dstW, dstH int) *Resampler {
	r := &Resampler{srcW: srcW, srcH: srcH, dstW: dstW, dstH: dstH}
	if (dstW != srcW || dstH != srcH) && dstW <= srcW && dstH <= srcH {
		r.area = newAreaTaps(srcW, srcH, dstW, dstH)
		if n := r.area.x.uniform(); (n == 2 || n == 3) && n == r.area.y.uniform() {
			r.unrolled = n
		}
	}
	return r
}

// Fits reports whether r resamples f into dst.
func (r *Resampler) Fits(f, dst *Frame) bool {
	return f.W == r.srcW && f.H == r.srcH && dst.W == r.dstW && dst.H == r.dstH
}

// Into resamples f into dst exactly as ResampleInto does; it panics when
// the sizes are not the ones r was built for. dst must not alias f.
func (r *Resampler) Into(f, dst *Frame) {
	if !r.Fits(f, dst) {
		panic(fmt.Sprintf("frame: Resampler %dx%d→%dx%d given %dx%d→%dx%d",
			r.srcW, r.srcH, r.dstW, r.dstH, f.W, f.H, dst.W, dst.H))
	}
	switch {
	case r.unrolled == 2:
		areaResample2(f, dst, r.area)
	case r.unrolled == 3:
		areaResample3(f, dst, r.area)
	case r.area != nil:
		areaResample(f, dst, r.area)
	default:
		ResampleInto(f, dst)
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

// areaResample is the general tap loop: any table, and the reference the
// unrolled kernels are tested against.
func areaResample(f, out *Frame, t *areaTaps) {
	w, h := out.W, out.H
	xt, yt := &t.x, &t.y
	for oy := 0; oy < h; oy++ {
		ys, ye := yt.off[oy], yt.off[oy+1]
		for ox := 0; ox < w; ox++ {
			xs, xe := xt.off[ox], xt.off[ox+1]
			var sum, area float64
			for ti := ys; ti < ye; ti++ {
				fy := yt.wgt[ti]
				row := f.Pix[yt.idx[ti]*f.W : (yt.idx[ti]+1)*f.W]
				for tj := xs; tj < xe; tj++ {
					wgt := xt.wgt[tj] * fy
					sum += wgt * float64(row[xt.idx[tj]])
					area += wgt
				}
			}
			if area > 0 {
				out.Pix[oy*w+ox] = float32(sum / area)
			}
		}
	}
}

// areaResample2 is areaResample for tables of two consecutive taps per
// output coordinate on both axes: the same multiply-adds in the same order
// (y tap outer, x tap inner), unrolled.
func areaResample2(f, out *Frame, t *areaTaps) {
	xt, yt := &t.x, &t.y
	sw := f.W
	for oy := 0; oy < out.H; oy++ {
		ty := 2 * oy
		y0 := yt.idx[ty]
		fy0, fy1 := yt.wgt[ty], yt.wgt[ty+1]
		r0 := f.Pix[y0*sw : (y0+1)*sw]
		r1 := f.Pix[(y0+1)*sw : (y0+2)*sw]
		orow := out.Pix[oy*out.W : (oy+1)*out.W]
		for ox := range orow {
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
			if area > 0 {
				orow[ox] = float32(sum / area)
			}
		}
	}
}

// areaResample3 is areaResample2 for three consecutive taps per output
// coordinate on both axes.
func areaResample3(f, out *Frame, t *areaTaps) {
	xt, yt := &t.x, &t.y
	sw := f.W
	for oy := 0; oy < out.H; oy++ {
		ty := 3 * oy
		y0 := yt.idx[ty]
		fy := yt.wgt[ty : ty+3 : ty+3]
		rows := f.Pix[y0*sw : (y0+3)*sw]
		orow := out.Pix[oy*out.W : (oy+1)*out.W]
		for ox := range orow {
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
			if area > 0 {
				orow[ox] = float32(sum / area)
			}
		}
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
