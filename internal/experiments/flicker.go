package experiments

import (
	"fmt"
	"io"

	"inframe/internal/core"
	"inframe/internal/display"
	"inframe/internal/frame"
	"inframe/internal/hvs"
	"inframe/internal/naive"
	"inframe/internal/video"
	"inframe/internal/waveform"
)

// FlickerPoint is one Fig. 6 data point: the simulated 8-subject panel's
// mean and standard deviation on the 0–4 flicker scale.
type FlickerPoint struct {
	Brightness float64
	Delta      float64
	Tau        int
	Mean, Std  float64
}

// rateMultiplexed builds the multiplexed and reference streams for a solid
// video at the given brightness and returns the panel's ratings summary.
func (s Setup) rateMultiplexed(brightness, delta float64, tau int) (mean, std float64, err error) {
	l := s.flickerLayout()
	p := core.DefaultParams(l)
	p.Delta = delta
	p.Tau = tau
	src := video.NewSolid(l.FrameW, l.FrameH, float32(brightness))
	m, errMux := core.NewMultiplexer(p, src, core.NewRandomStream(l, s.Seed))
	if errMux != nil {
		return 0, 0, errMux
	}
	dcfg := display.DefaultConfig()
	shown, errD := display.New(dcfg)
	if errD != nil {
		return 0, 0, errD
	}
	n := int(s.FlickerSeconds * dcfg.RefreshHz)
	if err := m.PushTo(shown, n); err != nil {
		return 0, 0, err
	}
	ref, errR := display.New(dcfg)
	if errR != nil {
		return 0, 0, errR
	}
	for k := 0; k < n; k++ {
		if err := ref.Push(src.Frame(k / p.VideoFrameRatio)); err != nil {
			return 0, 0, err
		}
	}
	panel := hvs.Panel(s.PanelSize, s.Seed)
	ratings := hvs.RateDisplayRef(panel, shown, ref, 3, 4, s.fullScalePitch(l), s.Seed)
	mean, std = hvs.MeanStd(ratings)
	return mean, std, nil
}

// ratePixelPitch rates a phantom-array-dominated stimulus (stair envelope,
// δ=30) rendered with Pixel size p, judged at the paper-scale pitch.
func (s Setup) ratePixelPitch(p int, paperPitch float64) (mean, std float64, err error) {
	bs := 4
	bp := p * bs
	l := core.Layout{
		FrameW: 12 * bp, FrameH: 8 * bp,
		PixelSize: p, BlockSize: bs, GOBSize: 2,
		BlocksX: 12, BlocksY: 8,
	}
	params := core.DefaultParams(l)
	params.Delta = 30
	params.Tau = 12
	params.Shape = waveform.Stair
	src := video.Gray(l.FrameW, l.FrameH)
	m, errMux := core.NewMultiplexer(params, src, core.NewRandomStream(l, s.Seed))
	if errMux != nil {
		return 0, 0, errMux
	}
	dcfg := display.DefaultConfig()
	shown, errD := display.New(dcfg)
	if errD != nil {
		return 0, 0, errD
	}
	n := int(s.FlickerSeconds * dcfg.RefreshHz)
	if err := m.PushTo(shown, n); err != nil {
		return 0, 0, err
	}
	ref, errR := display.New(dcfg)
	if errR != nil {
		return 0, 0, errR
	}
	for k := 0; k < n; k++ {
		if err := ref.Push(src.Frame(k / params.VideoFrameRatio)); err != nil {
			return 0, 0, err
		}
	}
	panel := hvs.Panel(s.PanelSize, s.Seed)
	ratings := hvs.RateDisplayRef(panel, shown, ref, 3, 4, paperPitch, s.Seed)
	mean, std = hvs.MeanStd(ratings)
	return mean, std, nil
}

// FlickerVsBrightness reproduces Fig. 6 (left): flicker perception versus
// color brightness for δ=20 and δ=50 at τ=12.
func FlickerVsBrightness(s Setup) ([]FlickerPoint, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var out []FlickerPoint
	for _, delta := range []float64{20, 50} {
		for b := 60.0; b <= 200; b += 20 {
			mean, std, err := s.rateMultiplexed(b, delta, 12)
			if err != nil {
				return nil, fmt.Errorf("experiments: flicker b=%v δ=%v: %w", b, delta, err)
			}
			out = append(out, FlickerPoint{Brightness: b, Delta: delta, Tau: 12, Mean: mean, Std: std})
		}
	}
	return out, nil
}

// FlickerVsAmplitude reproduces Fig. 6 (right): flicker perception versus
// waveform amplitude δ for τ ∈ {10, 12, 14} on the bright gray video.
func FlickerVsAmplitude(s Setup) ([]FlickerPoint, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var out []FlickerPoint
	for _, tau := range []int{10, 12, 14} {
		for _, delta := range []float64{20, 30, 50} {
			mean, std, err := s.rateMultiplexed(180, delta, tau)
			if err != nil {
				return nil, fmt.Errorf("experiments: flicker δ=%v τ=%d: %w", delta, tau, err)
			}
			out = append(out, FlickerPoint{Brightness: 180, Delta: delta, Tau: tau, Mean: mean, Std: std})
		}
	}
	return out, nil
}

// WriteFlicker prints flicker points as a table.
func WriteFlicker(w io.Writer, rows []FlickerPoint) {
	fmt.Fprintf(w, "%10s %6s %4s | %6s %6s\n", "brightness", "delta", "tau", "mean", "std")
	for _, r := range rows {
		fmt.Fprintf(w, "%10.0f %6.0f %4d | %6.2f %6.2f\n", r.Brightness, r.Delta, r.Tau, r.Mean, r.Std)
	}
}

// NaiveRow is one Fig. 3 outcome: a naive frame-insertion scheme's panel
// rating next to InFrame's at the same amplitude.
type NaiveRow struct {
	Scheme    string
	Mean, Std float64
}

// NaiveDesigns reproduces the §3.1 user-study outcome: every naive scheme
// flickers visibly, the complementary design does not. InFrame is appended
// as the last row.
func NaiveDesigns(s Setup) ([]NaiveRow, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	l := s.flickerLayout()
	delta := 40.0
	src := video.Gray(l.FrameW, l.FrameH)
	stream := core.NewRandomStream(l, s.Seed)
	dcfg := display.DefaultConfig()
	n := int(s.FlickerSeconds * dcfg.RefreshHz)
	panel := hvs.Panel(s.PanelSize, s.Seed)

	build := func(frameAt func(k int) *frame.Frame) (*display.Display, error) {
		d, err := display.New(dcfg)
		if err != nil {
			return nil, err
		}
		for k := 0; k < n; k++ {
			if err := d.Push(frameAt(k)); err != nil {
				return nil, err
			}
		}
		return d, nil
	}
	ref, err := build(func(k int) *frame.Frame { return src.Frame(k / 4) })
	if err != nil {
		return nil, err
	}
	rate := func(frameAt func(k int) *frame.Frame) (float64, float64, error) {
		d, err := build(frameAt)
		if err != nil {
			return 0, 0, err
		}
		ratings := hvs.RateDisplayRef(panel, d, ref, 3, 4, s.fullScalePitch(l), s.Seed)
		mean, std := hvs.MeanStd(ratings)
		return mean, std, nil
	}

	var out []NaiveRow
	for _, scheme := range naive.Schemes() {
		r, err := naive.NewRenderer(scheme, l, delta, src, stream)
		if err != nil {
			return nil, err
		}
		mean, std, err := rate(r.Frame)
		if err != nil {
			return nil, err
		}
		out = append(out, NaiveRow{Scheme: scheme.String(), Mean: mean, Std: std})
	}
	p := core.DefaultParams(l)
	p.Delta = delta
	m, err := core.NewMultiplexer(p, src, stream)
	if err != nil {
		return nil, err
	}
	mean, std, err := rate(m.Frame)
	if err != nil {
		return nil, err
	}
	out = append(out, NaiveRow{Scheme: "InFrame (complementary)", Mean: mean, Std: std})
	return out, nil
}

// WriteNaive prints the Fig. 3 comparison table.
func WriteNaive(w io.Writer, rows []NaiveRow) {
	fmt.Fprintf(w, "%-26s | %6s %6s\n", "scheme", "mean", "std")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s | %6.2f %6.2f\n", r.Scheme, r.Mean, r.Std)
	}
}
