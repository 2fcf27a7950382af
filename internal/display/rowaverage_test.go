package display

import (
	"math"
	"math/rand"
	"testing"

	"inframe/internal/frame"
)

// refRowAverage is RowAverage as it was before the first contributing
// interval stored its term: zero the row, then add every interval's term.
// The identity test pins the store-first form to it.
func refRowAverage(d *Display, y int, t0, t1 float64, dst []float32) {
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
		boost := float32(1 / duty)
		for k := k0; k < k1; k++ {
			a := math.Max(t0, (float64(k)+1-duty)*T)
			b := math.Min(t1, float64(k+1)*T)
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
			wgt := float32((b - a) / total)
			for x := 0; x < w; x++ {
				dst[x] += d.lut[target[x]] * wgt
			}
			continue
		}
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

// TestRowAverageMatchesZeroedSum: storing the first interval's term (and
// copying the LUT at a weight of exactly 1) is Float32bits-identical to
// adding every term to a zeroed row, on ideal, response-time and strobed
// displays, for windows inside one interval, across several, before the
// first frame, past the last, and in a strobe's dark phase, where no
// interval contributes and the row must come out black. The destination
// starts as NaN so an unwritten pixel fails.
func TestRowAverageMatchesZeroedSum(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"ideal", idealConfig()},
		{"response", DefaultConfig()},
		{"strobe", Config{RefreshHz: 120, Brightness: 0.8, Gamma: 2.2, StrobeDuty: 0.25}},
	} {
		d := mustNew(t, c.cfg)
		const w, h = 37, 5
		for k := 0; k < 5; k++ {
			f := frame.New(w, h)
			for i := range f.Pix {
				f.Pix[i] = float32(rng.Intn(256))
			}
			if err := d.Push(f); err != nil {
				t.Fatal(err)
			}
		}
		T := d.FrameDuration()
		windows := [][2]float64{
			{1.2 * T, 1.2*T + 0.0007}, // inside one interval: weight 1
			{1.5 * T, 1.5*T + 0.0001},
			{1.9 * T, 2.3 * T}, // two intervals
			{0.5 * T, 3.7 * T}, // four
			{-2 * T, -0.5 * T}, // before the first frame
			{4.5 * T, 7.2 * T}, // past the last
			{2.1 * T, 2.2 * T}, // a strobe's dark phase
			{0, T},
		}
		for i := 0; i < 20; i++ {
			a := rng.Float64() * 6 * T
			windows = append(windows, [2]float64{a, a + rng.Float64()*2*T + 1e-6})
		}
		for _, win := range windows {
			for y := 0; y < h; y++ {
				want := make([]float32, w)
				got := make([]float32, w)
				for x := range got {
					got[x] = float32(math.NaN())
				}
				refRowAverage(d, y, win[0], win[1], want)
				d.RowAverage(y, win[0], win[1], got)
				for x := range want {
					if math.Float32bits(got[x]) != math.Float32bits(want[x]) {
						t.Fatalf("%s window [%v,%v) row %d px %d: %v, zeroed sum %v", c.name, win[0], win[1], y, x, got[x], want[x])
					}
				}
			}
		}
	}
}
