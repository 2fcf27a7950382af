package core

import "math"

// ErasureCause classifies why a GOB (or Block) failed to deliver data. The
// values are ordered by severity — a GOB whose Blocks failed for several
// reasons reports the worst one — and the ordering is part of the decode
// report contract: higher means "less signal reached the decision stage".
type ErasureCause int8

const (
	// CauseNone: the GOB decoded and passed parity.
	CauseNone ErasureCause = iota
	// CauseParity: every Block decoded confidently but the XOR parity
	// failed — a confident wrong bit somewhere in the GOB.
	CauseParity
	// CauseLowConfidence: at least one Block's score fell inside the
	// hysteresis band around its threshold.
	CauseLowConfidence
	// CauseNoSwing: at least one Block never showed a usable bit-0/bit-1
	// level separation across the run (saturated or occluded area,
	// constant payload, crushed amplitude).
	CauseNoSwing
	// CauseNoSignal: at least one Block produced no usable measurement at
	// all (outside the camera's view, or every sensor row dropped by the
	// shutter model).
	CauseNoSignal
	// CauseNoCapture: the whole data frame was observed by no capture —
	// a timing gap in the capture sequence.
	CauseNoCapture

	// NumErasureCauses is the number of distinct causes, for fixed-size
	// tallies.
	NumErasureCauses = int(CauseNoCapture) + 1
)

// String implements fmt.Stringer.
func (c ErasureCause) String() string {
	switch c {
	case CauseNone:
		return "ok"
	case CauseParity:
		return "parity"
	case CauseLowConfidence:
		return "low-confidence"
	case CauseNoSwing:
		return "no-swing"
	case CauseNoSignal:
		return "no-signal"
	case CauseNoCapture:
		return "no-capture"
	default:
		return "unknown"
	}
}

// CaptureQuality is one entry of the decode report's quality timeline.
type CaptureQuality struct {
	// Index is the capture's position in the input sequence.
	Index int
	// Time is the capture's exposure start (as given to the decoder).
	Time float64
	// Quality is the link-quality score in [0, 1]: the product of block
	// coverage (finite measurements / visible Blocks), mean shutter
	// quality and the unclipped-pixel fraction. 0 for unscored captures.
	Quality float64
	// Scored: the capture fell in some data frame's steady window and was
	// measured.
	Scored bool
	// Used: the capture contributed to at least one decoded frame.
	Used bool
	// Excluded: the capture was scored but gated out by
	// ReceiverConfig.MinCaptureQuality.
	Excluded bool
}

// Registration describes the geometric decode path of a run — the pose and
// rectification diagnostics of the projective receiver. All fields derive
// deterministically from the receiver configuration, so reports compare
// equal across worker counts.
type Registration struct {
	// Projective: the decode rectified every capture through a homography.
	// False means the rigid axis-aligned path ran (including the frontal
	// fast path of an exactly axis-aligned pose).
	Projective bool
	// Pose is the display→capture homography the decode used (row-major),
	// or the zero matrix when no pose was configured.
	Pose [9]float64
	// MaxCornerOffsetPx is the largest displacement, in capture pixels,
	// between the pose's mapping of the layout's grid corners and the
	// frontal full-frame mapping's (FullFrame) — how far from frontal the
	// registered view sits. 0 when no pose was configured.
	MaxCornerOffsetPx float64
}

// DecodeReport is the graceful-degradation companion of a decoded run: which
// data frames arrived, why GOBs were erased, and how link quality evolved
// over the capture sequence.
type DecodeReport struct {
	// Frames are the decoded data frames, in order.
	Frames []*FrameDecode
	// Quality is the per-capture quality timeline, in capture order.
	Quality []CaptureQuality
	// Registration records the geometric decode path (projective
	// rectification vs rigid mapping) and its pose diagnostics.
	Registration Registration
	// GapFrames counts data frames observed by no (surviving) capture.
	GapFrames int
	// Resyncs counts recoveries: transitions from a gap frame back to a
	// frame with captures.
	Resyncs int
	// ExcludedCaptures counts captures gated out by MinCaptureQuality.
	ExcludedCaptures int
}

// CauseCounts tallies GOB outcomes across all frames by erasure cause;
// index with ErasureCause. CauseNone counts delivered GOBs.
func (r *DecodeReport) CauseCounts() [NumErasureCauses]int {
	var counts [NumErasureCauses]int
	for _, fd := range r.Frames {
		for _, g := range fd.GOBs {
			counts[g.Cause]++
		}
	}
	return counts
}

// GOBAvailability returns the per-GOB availability ratio across all frames,
// indexed gy*GOBsX+gx — the spatial availability map of the run. Frames
// with no GOBs are skipped; an empty report returns nil.
func (r *DecodeReport) GOBAvailability() []float64 {
	var out []float64
	n := 0
	for _, fd := range r.Frames {
		if len(fd.GOBs) == 0 {
			continue
		}
		if out == nil {
			out = make([]float64, len(fd.GOBs))
		}
		for i, g := range fd.GOBs {
			if g.Available {
				out[i]++
			}
		}
		n++
	}
	if out == nil {
		return nil
	}
	inv := 1 / float64(n)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// MeanQuality returns the mean link quality over scored captures (0 when
// none were scored).
func (r *DecodeReport) MeanQuality() float64 {
	var sum float64
	n := 0
	for _, q := range r.Quality {
		if q.Scored {
			sum += q.Quality
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MinQuality returns the lowest link quality over scored captures (+Inf
// when none were scored).
func (r *DecodeReport) MinQuality() float64 {
	min := math.Inf(1)
	for _, q := range r.Quality {
		if q.Scored && q.Quality < min {
			min = q.Quality
		}
	}
	return min
}
