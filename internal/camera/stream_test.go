package camera

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"inframe/internal/display"
	"inframe/internal/frame"
)

// planeCapture is the capture pipeline the row stream replaced, kept as
// its reference: integrate the whole display plane, blur it, cut the crop
// window, resample, then gamma-encode, add noise and quantize the whole
// sensor plane, each stage one full pass.
func planeCapture(c *Camera, d *display.Display, t0 float64, index int) *frame.Frame {
	cfg := c.cfg
	dw, dh := d.Size()
	lin := frame.New(dw, dh)
	var rowDt float64
	if cfg.H > 1 {
		rowDt = cfg.ReadoutTime / float64(cfg.H)
	}
	y0, span := 0, dh
	if cfg.cropped() {
		y0, span = cfg.CropY0, cfg.CropH
	}
	for y := 0; y < dh; y++ {
		sensorRow := min(max((y-y0)*cfg.H/span, 0), cfg.H-1)
		a := t0 + float64(sensorRow)*rowDt
		d.RowAverage(y, a, a+cfg.Exposure, lin.Row(y))
	}
	if cfg.BlurRadius > 0 {
		lin = frame.BoxBlur(lin, cfg.BlurRadius)
	}
	if cfg.cropped() {
		window := frame.New(cfg.CropW, cfg.CropH)
		window.Blit(lin, -cfg.CropX0, -cfg.CropY0)
		lin = window
	}
	out := frame.New(cfg.W, cfg.H)
	frame.ResampleInto(lin, out)
	for i, v := range out.Pix {
		out.Pix[i] = c.gamma.Encode8(v)
	}
	if cfg.NoiseSigma > 0 {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(index)*1000003))
		for i := range out.Pix {
			out.Pix[i] += float32(rng.NormFloat64() * cfg.NoiseSigma)
		}
	}
	out.Quantize()
	return out
}

// streamDisplay returns a w×h display of the given model showing four
// random drive frames.
func streamDisplay(t testing.TB, model string, w, h int, seed int64) *display.Display {
	t.Helper()
	cfg := display.DefaultConfig()
	switch model {
	case "ideal":
		cfg.ResponseTime = 0
	case "strobe":
		cfg.StrobeDuty = 0.5
	}
	d, err := display.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < 4; k++ {
		f := frame.New(w, h)
		for i := range f.Pix {
			f.Pix[i] = float32(rng.Intn(256))
		}
		if err := d.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// checkStream captures with cam at rowWorkers and fails unless the result
// is bit-identical to the plane reference.
func checkStream(t *testing.T, cam *Camera, d *display.Display, t0 float64, index, rowWorkers int) {
	t.Helper()
	want := planeCapture(cam, d, t0, index)
	got := cam.CaptureWith(d, t0, index, rowWorkers)
	for i, v := range want.Pix {
		if math.Float32bits(got.Pix[i]) != math.Float32bits(v) {
			t.Fatalf("workers=%d pixel (%d,%d): stream %v, plane %v", rowWorkers, i%want.W, i/want.W, got.Pix[i], v)
		}
	}
	cam.pool.Put(got)
}

// TestCaptureStreamMatchesPlanes pins the row-streaming capture to the
// plane pipeline, Float32bits-equal, over the sensor sizes of the default
// fleet and the 2.5× reduction (2- and 3-tap kernels), an odd size (the
// general tap loop), a 4:3 enlargement (bilinear) and the panel size (a
// copy); BlurRadius 0, 1, 2 and 5; no crop, an overscan window and an
// off-centre zoom; σ 0 and 2.5; ideal, response-time and strobed
// displays; exposures inside one refresh interval (one weight of exactly
// 1) and across two; and rowWorkers 1, 2 and 8. The last five axes are
// walked with co-prime strides rather than crossed in full, so every value
// of each meets many values of the others at a tenth of the cost.
func TestCaptureStreamMatchesPlanes(t *testing.T) {
	const dw, dh = 960, 540
	displays := map[string]*display.Display{}
	models := []string{"ideal", "response", "strobe"}
	for i, m := range models {
		displays[m] = streamDisplay(t, m, dw, dh, int64(i+1))
	}
	sizes := [][2]int{{640, 360}, {480, 270}, {384, 216}, {320, 180}, {97, 61}, {1280, 720}, {960, 540}}
	crops := []struct {
		name           string
		x0, y0, cw, ch int
	}{
		{"none", 0, 0, 0, 0},
		{"overscan", -40, -30, dw + 80, dh + 60},
		{"zoom", dw / 5, dh / 7, dw / 2, dh / 2},
	}
	exposures := []struct {
		name             string
		t0, exp, readout float64
	}{
		// A global shutter in the middle of interval 1: every row's window
		// lies inside it.
		{"one", 1.2 / 120, 0.0007, 0},
		// Rolling rows straddling the interval 1/2 boundary, 4 ms each.
		{"two", 1.9 / 120, 0.004, 0.008},
	}
	workers := []int{1, 2, 8}
	pool := frame.NewPool()
	n := 0
	for _, sz := range sizes {
		for _, blur := range []int{0, 1, 2, 5} {
			for ci, crop := range crops {
				sigma := []float64{0, 2.5}[n%2]
				model := models[n%3]
				ex := exposures[(n/2+ci)%2]
				w := workers[(n+ci)%3]
				n++
				name := fmt.Sprintf("%dx%d/blur%d/%s/sigma%g/%s/%s/workers%d", sz[0], sz[1], blur, crop.name, sigma, model, ex.name, w)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig(sz[0], sz[1])
					cfg.BlurRadius = blur
					cfg.NoiseSigma = sigma
					cfg.Exposure, cfg.ReadoutTime = ex.exp, ex.readout
					cfg.CropX0, cfg.CropY0, cfg.CropW, cfg.CropH = crop.x0, crop.y0, crop.cw, crop.ch
					cfg.Pool = pool
					cam, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkStream(t, cam, displays[model], ex.t0, n, w)
				})
			}
		}
	}
}

// TestCaptureStreamWorkerInvariance: one configuration, every worker
// count, each against the plane reference — chunked integration must not
// depend on how a chunk splits across workers.
func TestCaptureStreamWorkerInvariance(t *testing.T) {
	d := streamDisplay(t, "response", 96, 54, 9)
	cfg := DefaultConfig(64, 36)
	cfg.BlurRadius = 2
	cam, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 3, 8, 64} {
		checkStream(t, cam, d, 1.5/120, 4, w)
	}
}

// TestWarmCaptureAllocates: a warm capture allocates only the noise
// source (rand.NewSource and rand.New: at most the 3 allocations of the
// plane pipeline), and nothing at all without noise; every row buffer
// cycles through the camera's pool.
func TestWarmCaptureAllocates(t *testing.T) {
	d := streamDisplay(t, "response", 96, 54, 3)
	for _, c := range []struct {
		name  string
		blur  int
		crop  bool
		sigma float64
		limit float64
	}{
		{"plain", 0, false, 2.5, 3},
		{"blur", 1, false, 2.5, 3},
		{"crop", 2, true, 2.5, 3},
		{"quiet", 1, false, 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig(64, 36)
			cfg.BlurRadius, cfg.NoiseSigma, cfg.Workers = c.blur, c.sigma, 1
			if c.crop {
				cfg.CropX0, cfg.CropY0, cfg.CropW, cfg.CropH = -4, 6, 80, 40
			}
			cam, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			step := func() {
				cam.pool.Put(cam.Capture(d, 0.001, i))
				i++
			}
			step()
			misses := cam.pool.Stats().Misses
			if n := testing.AllocsPerRun(20, step); n > c.limit {
				t.Errorf("warm capture allocates %v times, want <= %v", n, c.limit)
			}
			if m := cam.pool.Stats().Misses; m != misses {
				t.Errorf("warm captures missed the pool %d times", m-misses)
			}
		})
	}
}

// FuzzCaptureStream compares the row-streaming capture with the plane
// reference on random small displays, sensors, crop windows, blur radii,
// noise, display models and worker counts.
func FuzzCaptureStream(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(30), uint8(20), uint8(15), uint8(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(30), uint8(20), uint8(45), uint8(40), uint8(2), uint8(1), uint8(7))
	f.Add(int64(3), uint8(9), uint8(6), uint8(3), uint8(2), uint8(5), uint8(2), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, dwB, dhB, swB, shB, blurB, modeB, cropB uint8) {
		dw, dh := 1+int(dwB)%48, 1+int(dhB)%48
		sw, sh := 1+int(swB)%48, 1+int(shB)%48
		rng := rand.New(rand.NewSource(seed))
		d := streamDisplay(t, []string{"ideal", "response", "strobe"}[modeB%3], dw, dh, seed)
		cfg := DefaultConfig(sw, sh)
		cfg.BlurRadius = int(blurB) % 7
		cfg.NoiseSigma = []float64{0, 2.5}[modeB/3%2]
		cfg.Exposure = 0.0002 + rng.Float64()*0.008
		cfg.ReadoutTime = rng.Float64() * 0.02
		if cropB%4 != 0 {
			cfg.CropX0, cfg.CropY0 = rng.Intn(2*dw+1)-dw, rng.Intn(2*dh+1)-dh
			cfg.CropW, cfg.CropH = 1+rng.Intn(2*dw), 1+rng.Intn(2*dh)
		}
		cam, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkStream(t, cam, d, rng.Float64()*0.02, int(seed&0xff), 1+int(cropB/4)%4)
	})
}
