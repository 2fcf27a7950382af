package display

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"inframe/internal/frame"
)

// retireModes are the three light-field paths Retire must preserve: ideal
// pixels, the response-state chain and the strobed backlight.
func retireModes() map[string]Config {
	resp := DefaultConfig()
	resp.ResponseTime = 0.002
	strobe := DefaultConfig()
	strobe.ResponseTime = 0
	strobe.StrobeDuty = 0.25
	return map[string]Config{"ideal": idealConfig(), "response": resp, "strobe": strobe}
}

// rampFrame is a 6×3 frame whose pixels differ within and across indices.
func rampFrame(k int) *frame.Frame {
	f := frame.New(6, 3)
	for i := range f.Pix {
		f.Pix[i] = float32((k*37 + i*11) % 256)
	}
	return f
}

// mustPanic runs fn and returns its panic message, failing when it does not
// panic.
func mustPanic(t *testing.T, name string, fn func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s did not panic", name)
			}
			msg = fmt.Sprint(r)
		}()
		fn()
	}()
	return msg
}

// TestRetireMatchesFullHistory: a display that retires everything a reader
// will not ask for again lights every window still readable exactly as one
// that keeps its full history, including repeats whose original was retired.
func TestRetireMatchesFullHistory(t *testing.T) {
	backs := []int{0, 0, 2, 2, 0, 1, 2, 0, 0, 2, 2, 2, 0, 1} // 0 = push
	for name, cfg := range retireModes() {
		t.Run(name, func(t *testing.T) {
			ret, full := mustNew(t, cfg), mustNew(t, cfg)
			T := ret.FrameDuration()
			got, want := make([]float32, 6), make([]float32, 6)
			for k, back := range backs {
				for _, d := range []*Display{ret, full} {
					var err error
					if back == 0 {
						err = d.Push(rampFrame(k))
					} else {
						err = d.Repeat(back)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				// Readers look at most 2.5 intervals behind the newest.
				horizon := (float64(k) - 1.5) * T
				ret.Retire(horizon)
				for _, win := range [][2]float64{{horizon, horizon + 0.4*T}, {horizon, float64(k+1) * T}, {horizon + 0.7*T, float64(k+3) * T}} {
					for y := 0; y < 3; y++ {
						ret.RowAverage(y, win[0], win[1], got)
						full.RowAverage(y, win[0], win[1], want)
						for x := range want {
							if math.Float32bits(got[x]) != math.Float32bits(want[x]) {
								t.Fatalf("after frame %d, window %v row %d px %d: retiring %v, full %v", k, win, y, x, got[x], want[x])
							}
						}
					}
				}
			}
			if ret.HeldFrames() >= full.HeldFrames() {
				t.Fatalf("retiring display holds %d frames, full history %d", ret.HeldFrames(), full.HeldFrames())
			}
		})
	}
}

func TestRetireKeepsNewestTwo(t *testing.T) {
	d := mustNew(t, idealConfig())
	for k := 0; k < 5; k++ {
		if err := d.Push(rampFrame(k)); err != nil {
			t.Fatal(err)
		}
	}
	T := d.FrameDuration()
	d.Retire(2.5 * T) // ⌊2.5⌋ = 2: intervals 0 and 1 go
	if got := d.HeldFrames(); got != 3 {
		t.Fatalf("after Retire(2.5T) %d frames held, want 3", got)
	}
	d.Luminance(2)
	mustPanic(t, "Luminance(1)", func() { d.Luminance(1) })
	d.Retire(math.Inf(1))
	if got := d.HeldFrames(); got != 2 {
		t.Fatalf("after Retire(+Inf) %d frames held, want the newest 2", got)
	}
	d.Luminance(3)
	d.Luminance(99) // the past-the-end clamp reads the newest interval
	if err := d.Repeat(2); err != nil {
		t.Fatalf("Repeat(2) after retiring everything retirable: %v", err)
	}
	// Retiring backwards, at NaN or before any frame is a no-op.
	for _, at := range []float64{0, -T, math.Inf(-1), math.NaN()} {
		d.Retire(at)
	}
	if d.HeldFrames() != 2 {
		t.Fatalf("no-op retires changed the held count to %d", d.HeldFrames())
	}
	empty := mustNew(t, idealConfig())
	empty.Retire(math.Inf(1))
	if empty.NumFrames() != 0 || empty.HeldFrames() != 0 {
		t.Fatal("Retire on an empty display changed it")
	}
}

// TestRetiredReadPanics: every light-field read of a retired interval fails
// loudly, naming the interval, instead of reading recycled storage.
func TestRetiredReadPanics(t *testing.T) {
	for name, cfg := range retireModes() {
		t.Run(name, func(t *testing.T) {
			d := mustNew(t, cfg)
			for k := 0; k < 6; k++ {
				if err := d.Push(rampFrame(k)); err != nil {
					t.Fatal(err)
				}
			}
			T := d.FrameDuration()
			d.Retire(3 * T)
			row := make([]float32, 6)
			out := make([]float64, 4)
			for read, fn := range map[string]func(){
				"RowAverage":       func() { d.RowAverage(1, 2*T, 2.5*T, row) },
				"RowAverage/clamp": func() { d.RowAverage(0, -T, 0.5*T, row) },
				"Luminance":        func() { d.Luminance(2) },
				"WindowAverage":    func() { d.WindowAverage(1.5*T, 3.5*T) },
				"PixelWaveform":    func() { d.PixelWaveform(0, 0, 2*T, 4*T, 4) },
				"PixelWaveformInto": func() {
					d.PixelWaveformInto(0, 0, 2.9*T, 3.1*T, out, row)
				},
			} {
				msg := mustPanic(t, read, fn)
				if !strings.Contains(msg, "interval") || !strings.Contains(msg, "retired") {
					t.Errorf("%s panicked with %q, want it to name the retired interval", read, msg)
				}
			}
			d.WindowAverage(3*T, 6*T) // the live intervals still read
		})
	}
}

func TestRepeatAcrossRetiredFrameErrors(t *testing.T) {
	d := mustNew(t, idealConfig())
	for k := 0; k < 4; k++ {
		if err := d.Push(rampFrame(k)); err != nil {
			t.Fatal(err)
		}
	}
	d.Retire(math.Inf(1)) // intervals 2 and 3 stay
	err := d.Repeat(3)
	if err == nil || !strings.Contains(err.Error(), "interval 1 is retired") {
		t.Fatalf("Repeat(3) across a retired frame: %v", err)
	}
	if d.NumFrames() != 4 {
		t.Fatalf("the rejected repeat changed NumFrames to %d", d.NumFrames())
	}
	if err := d.Repeat(2); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatStorageSurvivesRetire: a repeat shares its original's storage,
// so retiring the original must neither free nor recycle it while the
// repeat is live; once the repeat goes too, the storage is recycled.
func TestRepeatStorageSurvivesRetire(t *testing.T) {
	d, cp := mustNew(t, idealConfig()), mustNew(t, idealConfig())
	a, b, c := rampFrame(1), rampFrame(2), rampFrame(3)
	for _, f := range []*frame.Frame{a, b, a} {
		if err := cp.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	d.Push(a)
	d.Push(b)
	if err := d.Repeat(2); err != nil {
		t.Fatal(err)
	}
	T := d.FrameDuration()
	d.Retire(T) // interval 0 — a's original — goes; interval 2 still shows a
	if got := d.HeldFrames(); got != 2 {
		t.Fatalf("%d frames held, want 2 (a survives through its repeat)", got)
	}
	d.Push(c) // must carve fresh storage, not overwrite a
	if got := d.HeldFrames(); got != 3 {
		t.Fatalf("%d frames held after a push, want 3", got)
	}
	cp.Push(c)
	got, want := make([]float32, 6), make([]float32, 6)
	for y := 0; y < 3; y++ {
		d.RowAverage(y, 2*T, 3*T, got)
		cp.RowAverage(y, 2*T, 3*T, want)
		for x := range want {
			if math.Float32bits(got[x]) != math.Float32bits(want[x]) {
				t.Fatalf("repeat row %d px %d: %v after retiring its original, want %v", y, x, got[x], want[x])
			}
		}
	}
	d.Retire(math.Inf(1)) // intervals 1 (b) and 2 (a) go; 2 live intervals show a, c
	if got := d.HeldFrames(); got != 2 {
		t.Fatalf("%d frames held, want 2", got)
	}
	d.Retire(math.Inf(1))
	d.Push(b)
	d.Retire(math.Inf(1)) // a's last interval goes: its storage is free
	if got := d.HeldFrames(); got != 2 {
		t.Fatalf("%d frames held, want 2", got)
	}
	if d.StoredFrames() != 4 || d.NumFrames() != 5 {
		t.Fatalf("%d stored, %d shown; want 4 and 5", d.StoredFrames(), d.NumFrames())
	}
	if len(d.slots) != 3 {
		t.Fatalf("%d storage slots carved, want 3: a freed slot must be reused", len(d.slots))
	}
}

// TestWarmPushAfterRetireAllocates: once the free lists cover the live
// window, a push recycles retired storage (and state frames) and allocates
// nothing.
func TestWarmPushAfterRetireAllocates(t *testing.T) {
	for name, cfg := range retireModes() {
		t.Run(name, func(t *testing.T) {
			d := mustNew(t, cfg)
			f := frame.NewFilled(64, 32, 90)
			for k := 0; k < 8; k++ {
				d.Push(f)
				d.Retire(math.Inf(1))
			}
			if n := testing.AllocsPerRun(50, func() {
				if err := d.Push(f); err != nil {
					t.Fatal(err)
				}
				if err := d.Repeat(2); err != nil {
					t.Fatal(err)
				}
				d.Retire(math.Inf(1))
			}); n != 0 {
				t.Fatalf("warm Push + Repeat + Retire allocates %v times, want 0", n)
			}
			if d.HeldFrames() > 2 {
				t.Fatalf("%d frames held, want at most 2", d.HeldFrames())
			}
		})
	}
}

// TestRetireRecyclesStateFrames: with ResponseTime > 0 the float32 state
// frames of retired intervals serve later pushes.
func TestRetireRecyclesStateFrames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResponseTime = 0.002
	d := mustNew(t, cfg)
	for k := 0; k < 4; k++ {
		d.Push(rampFrame(k))
	}
	if len(d.state) != 5 {
		t.Fatalf("%d state frames for 4 intervals, want 5", len(d.state))
	}
	retired := map[*frame.Frame]bool{d.state[0]: true, d.state[1]: true}
	d.Retire(math.Inf(1))
	if len(d.state) != 3 || len(d.spare) != 2 {
		t.Fatalf("after retiring 2 intervals: %d state frames, %d spare; want 3 and 2", len(d.state), len(d.spare))
	}
	d.Push(rampFrame(4))
	if newest := d.state[len(d.state)-1]; !retired[newest] {
		t.Fatal("the next push allocated a state frame instead of recycling a retired one")
	}
}

func TestRetireKeepsAccounting(t *testing.T) {
	for name, cfg := range retireModes() {
		t.Run(name, func(t *testing.T) {
			d := mustNew(t, cfg)
			d.Push(rampFrame(0))
			d.Push(rampFrame(1))
			for i := 0; i < 6; i++ {
				if err := d.Repeat(2); err != nil {
					t.Fatal(err)
				}
			}
			d.Push(rampFrame(2))
			n, dur, stored := d.NumFrames(), d.Duration(), d.StoredFrames()
			d.Retire(math.Inf(1))
			if d.NumFrames() != n || math.Float64bits(d.Duration()) != math.Float64bits(dur) || d.StoredFrames() != stored {
				t.Fatalf("Retire moved the accounting: %d/%v/%d, want %d/%v/%d",
					d.NumFrames(), d.Duration(), d.StoredFrames(), n, dur, stored)
			}
			if d.HeldFrames() != 2 {
				t.Fatalf("%d frames held, want 2", d.HeldFrames())
			}
		})
	}
}
