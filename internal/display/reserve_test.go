package display

import (
	"math"
	"strings"
	"testing"

	"inframe/internal/frame"
)

// fillSlot writes v into every byte of a reserved slot.
func fillSlot(s Slot, v uint8) {
	for i := range s.Pix {
		s.Pix[i] = v
	}
}

// TestReserveInvisibleUntilCommit: a reserved slot is not an interval —
// NumFrames, StoredFrames and every window read ignore it, whatever it holds
// — until Commit shows it as the next one.
func TestReserveInvisibleUntilCommit(t *testing.T) {
	for name, cfg := range retireModes() {
		t.Run(name, func(t *testing.T) {
			d := mustNew(t, cfg)
			ref := mustNew(t, cfg)
			for k := 0; k < 3; k++ {
				d.Push(rampFrame(k))
				ref.Push(rampFrame(k))
			}
			s, err := d.Reserve(6, 3)
			if err != nil {
				t.Fatal(err)
			}
			fillSlot(s, 255)
			if d.NumFrames() != 3 || d.StoredFrames() != 3 {
				t.Fatalf("reserved slot counted: %d shown, %d stored", d.NumFrames(), d.StoredFrames())
			}
			T := d.FrameDuration()
			got, want := make([]float32, 6), make([]float32, 6)
			for _, t0 := range []float64{0, 1.5 * T, 2.5 * T, 3 * T, 5 * T} {
				for y := 0; y < 3; y++ {
					d.RowAverage(y, t0, t0+0.7*T, got)
					ref.RowAverage(y, t0, t0+0.7*T, want)
					for x := range want {
						if math.Float32bits(got[x]) != math.Float32bits(want[x]) {
							t.Fatalf("window at %v row %d pixel %d reads %v with a slot reserved, want %v", t0, y, x, got[x], want[x])
						}
					}
				}
			}
			if err := d.Commit(s); err != nil {
				t.Fatal(err)
			}
			if d.NumFrames() != 4 || d.StoredFrames() != 4 {
				t.Fatalf("after Commit: %d shown, %d stored, want 4 and 4", d.NumFrames(), d.StoredFrames())
			}
			ref.Push(frame.NewFilled(6, 3, 255))
			sameLight(t, d, ref, 0, 6*T)
		})
	}
}

// sameLight fails unless both displays light every window of a few widths
// over [t0, t1) identically.
func sameLight(t *testing.T, got, want *Display, t0, t1 float64) {
	t.Helper()
	T := want.FrameDuration()
	w, h := want.Size()
	a, b := make([]float32, w), make([]float32, w)
	for s := t0; s < t1; s += T / 3 {
		for _, e := range []float64{0.2 * T, T, 2.5 * T} {
			for y := 0; y < h; y++ {
				got.RowAverage(y, s, s+e, a)
				want.RowAverage(y, s, s+e, b)
				for x := range b {
					if math.Float32bits(a[x]) != math.Float32bits(b[x]) {
						t.Fatalf("window [%v,%v) row %d pixel %d: %v, want %v", s, s+e, y, x, a[x], b[x])
					}
				}
			}
		}
	}
}

// TestReservedSlotSurvivesRetire: Retire frees shown intervals only, so a
// slot held across pushes, repeats and retires keeps its bytes, and no later
// Reserve (or Push) hands out its storage a second time.
func TestReservedSlotSurvivesRetire(t *testing.T) {
	d := mustNew(t, idealConfig())
	for k := 0; k < 4; k++ {
		d.Push(rampFrame(k))
	}
	s, err := d.Reserve(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	fillSlot(s, 77)
	held := map[*uint8]bool{&s.Pix[0]: true}
	for k := 4; k < 12; k++ {
		d.Retire(math.Inf(1))
		o, err := d.Reserve(6, 3)
		if err != nil {
			t.Fatal(err)
		}
		if held[&o.Pix[0]] {
			t.Fatalf("reserve %d handed out storage another slot holds", k)
		}
		held[&o.Pix[0]] = true
		fillSlot(o, uint8(k))
		if err := d.Commit(o); err != nil {
			t.Fatal(err)
		}
		delete(held, &o.Pix[0]) // shown now: Retire may recycle it
		if err := d.Repeat(2); err != nil {
			t.Fatal(err)
		}
		d.Push(rampFrame(k))
	}
	for i, v := range s.Pix {
		if v != 77 {
			t.Fatalf("reserved byte %d = %d after retires, want 77", i, v)
		}
	}
	if err := d.Commit(s); err != nil {
		t.Fatal(err)
	}
	want := mustNew(t, idealConfig())
	want.Push(frame.NewFilled(6, 3, 77))
	n := d.NumFrames()
	for i, v := range d.Luminance(n - 1).Pix {
		if w := want.Luminance(0).Pix[i]; math.Float32bits(v) != math.Float32bits(w) {
			t.Fatalf("committed pixel %d = %v, want %v", i, v, w)
		}
	}
}

// TestCommitChecksSlot: a slot commits once, on the display that reserved
// it; a reservation must match the panel size.
func TestCommitChecksSlot(t *testing.T) {
	d := mustNew(t, idealConfig())
	other := mustNew(t, idealConfig())
	s, err := d.Reserve(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Commit(s); err == nil {
		t.Fatal("another display committed the slot")
	}
	if err := d.Commit(Slot{}); err == nil {
		t.Fatal("the zero Slot committed")
	}
	if err := d.Commit(s); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(s); err == nil || !strings.Contains(err.Error(), "not reserved") {
		t.Fatalf("second Commit: %v, want a not-reserved error", err)
	}
	if d.NumFrames() != 1 {
		t.Fatalf("%d frames shown, want 1", d.NumFrames())
	}
	if _, err := d.Reserve(5, 3); err == nil {
		t.Fatal("Reserve accepted a size that does not match the panel")
	}
}
