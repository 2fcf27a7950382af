package frame

import (
	"math"
	"math/rand"
	"testing"
)

// This file keeps the whole-plane kernels the row kernels replaced, as the
// references the identity tests pin them to.

// refBlurRows is the horizontal box pass as a plane walk, clamping every
// tap index.
func refBlurRows(src, dst *Frame, r int) {
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

// refBlurCols is the vertical box pass as a walk down each column with
// stride W.
func refBlurCols(src, dst *Frame, r int) {
	w, h := src.W, src.H
	inv := 1 / float32(2*r+1)
	col := make([]float32, h)
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

// refBoxBlur is the column-walk box blur BoxBlurInto replaced.
func refBoxBlur(f *Frame, r int) *Frame {
	if r <= 0 {
		return f.Clone()
	}
	tmp, out := New(f.W, f.H), New(f.W, f.H)
	refBlurRows(f, tmp, r)
	refBlurCols(tmp, out, r)
	return out
}

// refResample is the plane resampler the row kernels replaced: a copy for
// equal sizes, the general area tap loop when no axis grows, bilinear
// interpolation otherwise.
func refResample(f, out *Frame) {
	switch {
	case f.SameSize(out):
		f.CloneInto(out)
	case out.W <= f.W && out.H <= f.H:
		refAreaResample(f, out, newAreaTaps(f.W, f.H, out.W, out.H))
	default:
		refBilinear(f, out)
	}
}

// refAreaResample is the general area tap loop over a zeroed plane.
func refAreaResample(f, out *Frame, t *areaTaps) {
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

// refBilinear is the plane bilinear enlarger.
func refBilinear(f, out *Frame) {
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

// TestBoxBlurMatchesColumnWalk: the row-major vertical pass (one running
// sum per column) and the split-interior row pass reproduce the
// column-walk blur bit for bit, at the radii the pipeline uses and past
// them, on a panel-sized plane and on planes narrower and shorter than
// the kernel.
func TestBoxBlurMatchesColumnWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := NewPool()
	for _, sz := range [][2]int{{960, 540}, {97, 61}, {3, 7}, {7, 3}, {1, 1}, {2, 12}} {
		f := New(sz[0], sz[1])
		for _, r := range []int{1, 2, 5} {
			areaPalette(f, rng)
			want := refBoxBlur(f, r)
			got := New(f.W, f.H)
			BoxBlurInto(f, got, r, pool)
			for i, v := range want.Pix {
				if math.Float32bits(got.Pix[i]) != math.Float32bits(v) {
					t.Fatalf("%dx%d r=%d pixel %d: %v, column walk %v", f.W, f.H, r, i, got.Pix[i], v)
				}
			}
		}
	}
}
