package frame

import (
	"math"
	"math/rand"
	"testing"
)

// areaPalette fills f from rng with ordinary samples mixed with the values
// that stress the float64 accumulation: the drive extremes 0 and 255, and
// float32 subnormals.
func areaPalette(f *Frame, rng *rand.Rand) {
	for i := range f.Pix {
		switch rng.Intn(6) {
		case 0:
			f.Pix[i] = 0
		case 1:
			f.Pix[i] = 255
		case 2:
			f.Pix[i] = math.Float32frombits(uint32(1 + rng.Intn(1<<23-1)))
		default:
			f.Pix[i] = rng.Float32() * 255
		}
	}
}

// checkAreaKernel fails unless r.Into and ResampleInto match the plane
// reference (the general tap loop, bilinear walk or copy) bit for bit on
// src. The destinations start as NaN, so a row kernel that leaves a pixel
// unwritten fails too.
func checkAreaKernel(t *testing.T, r *Resampler, src *Frame) {
	t.Helper()
	got, loop, ref := NewFilled(r.dstW, r.dstH, float32(math.NaN())), New(r.dstW, r.dstH), NewFilled(r.dstW, r.dstH, float32(math.NaN()))
	r.Into(src, got)
	ResampleInto(src, ref)
	refResample(src, loop)
	for i, v := range loop.Pix {
		if math.Float32bits(got.Pix[i]) != math.Float32bits(v) || math.Float32bits(ref.Pix[i]) != math.Float32bits(v) {
			t.Fatalf("%dx%d→%dx%d (unrolled %d) pixel %d: kernel %v, ResampleInto %v, reference %v",
				r.srcW, r.srcH, r.dstW, r.dstH, r.unrolled(), i, got.Pix[i], ref.Pix[i], v)
		}
	}
}

// TestAreaKernelsMatchTapLoop: NewResampler picks the unrolled kernel
// exactly when every output coordinate on both axes averages 2 (or 3)
// consecutive inputs — the 1.5×, 2×, 2.5× and 3× reductions, the three
// sensor sizes of a 960×540 panel among them — and the kernels reproduce
// the general tap loop bit for bit. Every other table falls back to it.
func TestAreaKernelsMatchTapLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct{ sw, sh, dw, dh, unrolled int }{
		{960, 540, 640, 360, 2}, {960, 540, 480, 270, 2}, {960, 540, 320, 180, 3},
		{64, 36, 32, 18, 2}, {90, 60, 60, 40, 2}, {9, 3, 6, 2, 2}, {2, 2, 1, 1, 2},
		{63, 33, 21, 11, 3}, {3, 3, 1, 1, 3}, {10, 10, 4, 4, 3}, // 2.5×: taps 1, 1, ½ and ½, 1, 1
		// Fallbacks: odd ratios, mixed 2/3 axes, one-tap and four-tap axes.
		{97, 61, 40, 33, 0}, {960, 540, 640, 180, 0}, {11, 11, 4, 4, 0},
		{8, 8, 8, 4, 0}, {12, 12, 3, 3, 0},
		// Copy and bilinear: no taps at all.
		{40, 33, 40, 33, 0}, {40, 33, 97, 61, 0},
	} {
		r := NewResampler(c.sw, c.sh, c.dw, c.dh)
		if r.unrolled() != c.unrolled {
			t.Errorf("%dx%d→%dx%d: unrolled %d, want %d", c.sw, c.sh, c.dw, c.dh, r.unrolled(), c.unrolled)
		}
		src := New(c.sw, c.sh)
		for round := 0; round < 2; round++ {
			areaPalette(src, rng)
			checkAreaKernel(t, r, src)
		}
	}
}

// unrolled returns the taps per coordinate of r's unrolled area kernel, or
// 0 when it runs another kernel.
func (r *Resampler) unrolled() int {
	switch r.kind {
	case resampleArea2:
		return 2
	case resampleArea3:
		return 3
	}
	return 0
}

// FuzzAreaResample compares every resampler against the plane reference
// on random sizes up to 64 px — a quarter of them exact 1.5×, 2× or 3×
// reductions, which select the unrolled kernels — and random pixels mixed
// with 0, 255 and subnormals; sizes that grow an axis run bilinear.
func FuzzAreaResample(f *testing.F) {
	f.Add(int64(1), uint8(63), uint8(40), uint8(21), uint8(11), uint8(0))
	f.Add(int64(2), uint8(20), uint8(12), uint8(0), uint8(0), uint8(1))
	f.Add(int64(3), uint8(9), uint8(6), uint8(0), uint8(0), uint8(2))
	f.Add(int64(4), uint8(30), uint8(18), uint8(0), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, a, b, c, d, mode uint8) {
		var sw, sh, dw, dh int
		switch mode % 8 {
		case 1: // 2×
			dw, dh = 1+int(a)%32, 1+int(b)%32
			sw, sh = 2*dw, 2*dh
		case 2: // 3×
			dw, dh = 1+int(a)%21, 1+int(b)%21
			sw, sh = 3*dw, 3*dh
		case 3: // 1.5×
			dw, dh = 2*(1+int(a)%21), 2*(1+int(b)%21)
			sw, sh = 3*dw/2, 3*dh/2
		default:
			sw, sh = 1+int(a)%64, 1+int(b)%64
			dw, dh = 1+int(c)%64, 1+int(d)%64
		}
		r := NewResampler(sw, sh, dw, dh)
		src := New(sw, sh)
		areaPalette(src, rand.New(rand.NewSource(seed)))
		checkAreaKernel(t, r, src)
	})
}
