package core

import (
	"fmt"
	"math"
	"testing"

	"inframe/internal/display"
	"inframe/internal/frame"
	"inframe/internal/video"
)

// repeatDisplayConfigs are the display models the repeat path must agree
// with Frame + Push on: ideal pixels, the exponential response chain and a
// strobed backlight.
func repeatDisplayConfigs() map[string]display.Config {
	ideal := display.DefaultConfig()
	ideal.ResponseTime = 0
	resp := display.DefaultConfig()
	resp.ResponseTime = 0.002
	strobe := display.DefaultConfig()
	strobe.StrobeDuty = 0.25
	return map[string]display.Config{"ideal": ideal, "response": resp, "strobe": strobe}
}

func newDisplay(t *testing.T, cfg display.Config) *display.Display {
	t.Helper()
	d, err := display.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// pushRendered is the reference path: render frame k, push it, recycle it.
func pushRendered(t *testing.T, m *Multiplexer, d *display.Display, k int) {
	t.Helper()
	f := m.Frame(k)
	if err := d.Push(f); err != nil {
		t.Fatal(err)
	}
	m.Recycle(f)
}

// sameHistory fails unless both displays show the same drive frames, bit
// for bit.
func sameHistory(t *testing.T, got, want *display.Display) {
	t.Helper()
	if got.NumFrames() != want.NumFrames() {
		t.Fatalf("%d frames shown, want %d", got.NumFrames(), want.NumFrames())
	}
	for k := 0; k < want.NumFrames(); k++ {
		a, b := got.Luminance(k).Pix, want.Luminance(k).Pix
		for i := range b {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("frame %d pixel %d: %v, want %v", k, i, a[i], b[i])
			}
		}
	}
}

// TestPushToMatchesFramePush: PushTo's drive history and RenderStats equal a
// Frame + Push replay for static, clipped, scrolling and moving sources at
// several worker counts and on every display model — repeats are exact.
func TestPushToMatchesFramePush(t *testing.T) {
	l := smallLayout()
	w, h := l.FrameW, l.FrameH
	sources := map[string]func() video.Source{
		"gray":    func() video.Source { return video.Gray(w, h) },
		"black":   func() video.Source { return video.NewSolid(w, h, 0) },
		"white":   func() video.Source { return video.NewSolid(w, h, 255) },
		"ticker":  func() video.Source { return video.NewTicker(w, h, 3, 2) },
		"sunrise": func() video.Source { return video.NewSunRise(w, h, 3) },
	}
	n := 4 * DefaultParams(l).Tau
	for name, src := range sources {
		for dname, dcfg := range repeatDisplayConfigs() {
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", name, dname, workers), func(t *testing.T) {
					p := DefaultParams(l)
					p.Workers = workers
					m := newMux(t, p, src(), NewRandomStream(l, 9))
					got := newDisplay(t, dcfg)
					if err := m.PushTo(got, n); err != nil {
						t.Fatal(err)
					}
					ref := newMux(t, p, src(), NewRandomStream(l, 9))
					want := newDisplay(t, dcfg)
					for k := 0; k < n; k++ {
						pushRendered(t, ref, want, k)
					}
					sameHistory(t, got, want)
					if m.RenderStats() != ref.RenderStats() {
						t.Fatalf("RenderStats %+v, want %+v", m.RenderStats(), ref.RenderStats())
					}
					// Every source here has a steady run, so a history with
					// no repeat would make the comparison vacuous.
					if got.StoredFrames() == n {
						t.Fatal("PushTo repeated no frame")
					}
					if want.StoredFrames() != n {
						t.Fatalf("Push stored %d of %d frames", want.StoredFrames(), n)
					}
				})
			}
		}
	}
}

// TestPushFrameRepeatCount pins how many frames the repeat rule certifies on
// a static gray video at τ=12: frames j = 2..5 of every data period. j = 0
// rewrites the Blocks whose u=1 envelope endpoint lands float dust away from
// the new steady level, j = 1 follows a rewrite, and j ≥ 6 are transitions.
func TestPushFrameRepeatCount(t *testing.T) {
	l := smallLayout()
	p := DefaultParams(l)
	if p.Tau != 12 {
		t.Fatalf("default τ = %d, the pin assumes 12", p.Tau)
	}
	m := newMux(t, p, video.Gray(l.FrameW, l.FrameH), NewRandomStream(l, 1))
	d := newDisplay(t, repeatDisplayConfigs()["ideal"])
	const n = 240
	stored := 0
	for k := 0; k < n; k++ {
		if err := m.PushFrame(d, k); err != nil {
			t.Fatal(err)
		}
		repeated := d.StoredFrames() == stored
		stored = d.StoredFrames()
		if j := k % p.Tau; repeated != (j >= 2 && j <= 5) {
			t.Errorf("frame %d (j=%d): repeated=%v", k, j, repeated)
		}
	}
	if d.NumFrames() != n || n-d.StoredFrames() != 80 {
		t.Fatalf("%d frames shown, %d repeated; want %d and 80", d.NumFrames(), n-d.StoredFrames(), n)
	}
}

// negativeCase runs one interleaving of mux calls, and replays it with every
// push going through Frame + Push. Each display must match its replay bit
// for bit, with equal RenderStats; the caller checks which frames were
// rendered in full through the returned displays' StoredFrames.
func negativeCase(t *testing.T, run func(m *Multiplexer, ds []*display.Display, push func(d *display.Display, k int)), nDisplays int) []*display.Display {
	t.Helper()
	l := smallLayout()
	p := DefaultParams(l)
	mk := func() (*Multiplexer, []*display.Display) {
		ds := make([]*display.Display, nDisplays)
		for i := range ds {
			ds[i] = newDisplay(t, repeatDisplayConfigs()["response"])
		}
		return newMux(t, p, video.Gray(l.FrameW, l.FrameH), NewRandomStream(l, 1)), ds
	}
	m, got := mk()
	run(m, got, func(d *display.Display, k int) {
		if err := m.PushFrame(d, k); err != nil {
			t.Fatal(err)
		}
	})
	ref, want := mk()
	run(ref, want, func(d *display.Display, k int) { pushRendered(t, ref, d, k) })
	for i := range got {
		sameHistory(t, got[i], want[i])
	}
	if m.RenderStats() != ref.RenderStats() {
		t.Fatalf("RenderStats %+v, want %+v", m.RenderStats(), ref.RenderStats())
	}
	return got
}

// TestPushFrameForeignPushRendersFull: a frame pushed by someone else
// between two PushFrame calls breaks the certified history, so the frames
// after it render in full until two of the mux's own frames are on top.
func TestPushFrameForeignPushRendersFull(t *testing.T) {
	ds := negativeCase(t, func(m *Multiplexer, ds []*display.Display, push func(*display.Display, int)) {
		push(ds[0], 0)
		push(ds[0], 1)
		if err := ds[0].Push(frame.NewFilled(smallLayout().FrameW, smallLayout().FrameH, 40)); err != nil {
			t.Fatal(err)
		}
		push(ds[0], 2)
		push(ds[0], 3)
		// Frames 2 and 3 are now the top two: frame 4 is a legal repeat.
		push(ds[0], 4)
	}, 1)
	if got := ds[0].StoredFrames(); got != 5 {
		t.Fatalf("stored %d of 6 frames, want 5 (frames 2 and 3 full, frame 4 repeated)", got)
	}
}

// TestPushFrameRandomAccessRendersFull: a random-access Frame between pushes
// moves the render state off the consecutive run, so the next push renders
// in full.
func TestPushFrameRandomAccessRendersFull(t *testing.T) {
	ds := negativeCase(t, func(m *Multiplexer, ds []*display.Display, push func(*display.Display, int)) {
		push(ds[0], 0)
		push(ds[0], 1)
		m.Recycle(m.Frame(7))
		push(ds[0], 2)
		push(ds[0], 3)
	}, 1)
	if got := ds[0].StoredFrames(); got != 4 {
		t.Fatalf("stored %d of 4 frames, want every frame rendered", got)
	}
	ds = negativeCase(t, func(m *Multiplexer, ds []*display.Display, push func(*display.Display, int)) {
		push(ds[0], 0)
		push(ds[0], 1)
		m.Recycle(m.Frame(2))
		push(ds[0], 2)
	}, 1)
	if got := ds[0].StoredFrames(); got != 3 {
		t.Fatalf("stored %d of 3 frames after re-rendering frame 2, want 3", got)
	}
}

// TestPushFrameTwoDisplaysRenderFull: one mux feeding two displays never
// repeats — neither display holds two consecutive frames of its run.
func TestPushFrameTwoDisplaysRenderFull(t *testing.T) {
	const n = 12
	alternate := negativeCase(t, func(m *Multiplexer, ds []*display.Display, push func(*display.Display, int)) {
		for k := 0; k < n; k++ {
			push(ds[k%2], k)
		}
	}, 2)
	both := negativeCase(t, func(m *Multiplexer, ds []*display.Display, push func(*display.Display, int)) {
		for k := 0; k < n; k++ {
			push(ds[0], k)
			push(ds[1], k)
		}
	}, 2)
	// Frame k−1 went elsewhere and a foreign frame took its slot: the frame
	// below the top is still the mux's frame k−2, but the history is not
	// this path's run, so frame k renders in full.
	elsewhere := negativeCase(t, func(m *Multiplexer, ds []*display.Display, push func(*display.Display, int)) {
		push(ds[0], 0)
		push(ds[0], 1)
		push(ds[0], 2)
		push(ds[1], 3)
		if err := ds[0].Push(frame.NewFilled(smallLayout().FrameW, smallLayout().FrameH, 40)); err != nil {
			t.Fatal(err)
		}
		push(ds[0], 4)
	}, 2)
	if got := elsewhere[0].StoredFrames(); got != 4 {
		t.Fatalf("stored %d of 5 frames, want 4 (frame 2 repeated, frame 4 rendered)", got)
	}
	for _, ds := range [][]*display.Display{alternate, both} {
		for i, d := range ds {
			if d.StoredFrames() != d.NumFrames() {
				t.Fatalf("display %d stored %d of %d frames, want every frame rendered", i, d.StoredFrames(), d.NumFrames())
			}
		}
	}
}

// TestPushFrameWarmAllocates: once the data frames are cached and the
// display recycles retired storage, PushFrame on one worker allocates
// nothing — rendered frames, certified repeats and video loads alike. The
// sweep writes the display's reserved slot directly, and the render's
// fan-outs run inline without a closure.
func TestPushFrameWarmAllocates(t *testing.T) {
	l := smallLayout()
	w, h := l.FrameW, l.FrameH
	sources := map[string]func() video.Source{
		"gray":    func() video.Source { return video.Gray(w, h) },
		"ticker":  func() video.Source { return video.NewTicker(w, h, 3, 2) },
		"sunrise": func() video.Source { return video.NewSunRise(w, h, 3) },
	}
	const warm, runs = 48, 96
	for name, src := range sources {
		for _, dname := range []string{"ideal", "response"} {
			t.Run(name+"/"+dname, func(t *testing.T) {
				p := DefaultParams(l)
				p.Workers = 1
				stream := NewRandomStream(l, 1)
				for i := 0; i <= (warm+2*runs)/p.Tau+1; i++ {
					stream.DataFrame(i)
				}
				m := newMux(t, p, src(), stream)
				d := newDisplay(t, repeatDisplayConfigs()[dname])
				T := d.FrameDuration()
				k := 0
				step := func() {
					if err := m.PushFrame(d, k); err != nil {
						t.Fatal(err)
					}
					d.Retire(float64(k-2) * T)
					k++
				}
				for k < warm {
					step()
				}
				// One measured batch of runs frames: AllocsPerRun truncates
				// its per-run mean, which would hide an allocation made on
				// only the rendered (not the repeated) frames.
				if n := testing.AllocsPerRun(1, func() {
					for range runs {
						step()
					}
				}); n != 0 {
					t.Fatalf("warm PushFrame allocates %v times in %d frames, want 0", n, runs)
				}
			})
		}
	}
}
