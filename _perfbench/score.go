package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"inframe/internal/core"
	"inframe/internal/fleet"
	"inframe/internal/metrics"
)

// outcome is what one pass delivered, scored against the transmitted
// payload. Every field is a pure function of the seed: count and quality
// figures repeat exactly across runs.
type outcome struct {
	SimSeconds float64
	// Receivers decoding the pass (1 unless a fleet).
	Receivers int
	// GOB observations by fate. Delivered GOBs passed parity; of those,
	// Correct match the oracle bit for bit and Undetected do not. Oracle
	// reports whether Correct and Undetected were counted (fleet.Run does
	// not export per-GOB outcomes; the traced replay counts them).
	GOBs, Delivered, Correct, Undetected int
	Oracle                               bool
	// DataBitsPerGOB converts correct GOBs into payload bits.
	DataBitsPerGOB int
	// BER is the confident-bit error rate against the oracle (wrong
	// decided Blocks over decided Blocks; the fleet's mean over receivers).
	BER float64
	// FirstDecodeS is the simulated time to the first delivered GOB (the
	// fleet's p95 over receivers that decoded).
	FirstDecodeS float64
	// Degrade holds the erasure causes and capture accounting.
	Degrade metrics.DegradationStats
	// Digest hashes the decoded bits (single receiver) or every receiver's
	// scored outcome (fleet).
	Digest uint64
	// NeverDecoded counts fleet receivers that delivered nothing.
	NeverDecoded int
	// Render and pool counters of the pass.
	Render               core.RenderStats
	PoolGets, PoolMisses uint64
	PoolHighWater        int
	// Calibration of the pose workload: wall time of the solve, corner
	// error against the true pose, and whether the decode rectified.
	CalibS      float64
	CornerErrPx float64
	Projective  bool
}

func (o *outcome) gobFailRate() float64 { return 1 - o.Degrade.DeliveredRatio() }

// goodputBps is oracle-verified payload bits per simulated second, per
// receiver.
func (o *outcome) goodputBps() float64 {
	return float64(o.Correct*o.DataBitsPerGOB) / (o.SimSeconds * float64(max(o.Receivers, 1)))
}

func (o *outcome) undetectedRate() float64 {
	if o.GOBs == 0 {
		return 0
	}
	return float64(o.Undetected) / float64(o.GOBs)
}

// scoreDecode scores a single receiver's decoded run against the oracle
// and fills the quality and digest fields of o.
func scoreDecode(o *outcome, decoded []*core.FrameDecode, rep *core.DecodeReport, oracle []*core.DataFrame, l core.Layout, tau int, refreshHz float64) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wrong, decided := 0, 0
	o.FirstDecodeS = math.Inf(1)
	for d, fd := range decoded {
		want := oracle[d]
		put(uint64(fd.Index))
		put(uint64(fd.Captures))
		for j, dec := range fd.Decided {
			var v uint64
			if fd.Bits.Bits[j] {
				v = 1
			}
			if dec {
				v |= 2
				decided++
				if fd.Bits.Bits[j] != want.Bits[j] {
					wrong++
				}
			}
			put(v)
		}
		for _, g := range fd.GOBs {
			put(uint64(g.Cause))
			o.GOBs++
			if g.Cause != core.CauseNone {
				continue
			}
			o.Delivered++
			if math.IsInf(o.FirstDecodeS, 1) {
				o.FirstDecodeS = float64((d+1)*tau) / refreshHz
			}
			good := true
			for _, blk := range l.GOBBlocks(g.GX, g.GY) {
				if fd.Bits.Bit(blk[0], blk[1]) != want.Bit(blk[0], blk[1]) {
					good = false
					break
				}
			}
			if good {
				o.Correct++
			} else {
				o.Undetected++
			}
		}
	}
	if decided > 0 {
		o.BER = float64(wrong) / float64(decided)
	}
	o.DataBitsPerGOB = l.BlocksPerGOB() - 1
	o.Oracle = true
	o.Degrade.AddReport(rep)
	o.Digest = h.Sum64()
}

// fleetDigest hashes every receiver's scored outcome and the merged
// erasure tally, in receiver order.
func fleetDigest(recvs []fleet.ReceiverResult, deg *metrics.DegradationStats) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range recvs {
		put(uint64(r.CaptureW))
		put(uint64(r.CaptureH))
		put(uint64(r.Captures))
		put(uint64(r.GapFrames))
		put(uint64(r.Resyncs))
		put(math.Float64bits(r.Start))
		put(math.Float64bits(r.Avail))
		put(math.Float64bits(r.BER))
		put(math.Float64bits(r.TTFD))
	}
	for _, c := range deg.Causes {
		put(uint64(c))
	}
	put(uint64(deg.ExcludedCaptures))
	return h.Sum64()
}

// fleetOutcome scores a fleet result from what fleet.Run exports: each
// receiver's availability, oracle-verified confident-bit error rate and
// time to first decode, and the merged erasure tally.
func fleetOutcome(res *fleet.Result, simSeconds float64) outcome {
	o := outcome{
		SimSeconds:    simSeconds,
		Receivers:     res.N,
		BER:           res.BER.Mean,
		FirstDecodeS:  res.TTFD.P95,
		Degrade:       res.Degrade,
		GOBs:          res.Degrade.TotalGOBs(),
		Delivered:     res.Degrade.Causes[core.CauseNone],
		NeverDecoded:  res.NeverDecoded,
		Render:        res.Render,
		PoolGets:      res.Pool.Gets,
		PoolMisses:    res.Pool.Misses,
		PoolHighWater: res.PoolHighWater.Frames,
	}
	o.Digest = fleetDigest(res.Receivers, &res.Degrade)
	return o
}

// scoreReceiver is the fleet's per-receiver score, restated from the
// package's definition so the traced replay can reproduce fleet.Run's
// result: availability over all data frames and the confident-bit error
// rate over decided Blocks.
func scoreReceiver(decoded []*core.FrameDecode, oracle []*core.DataFrame, l core.Layout) (avail, ber float64) {
	availGOBs, totalGOBs := 0, 0
	wrong, decided := 0, 0
	for d, fd := range decoded {
		totalGOBs += l.NumGOBs()
		availGOBs += fd.AvailableGOBs()
		want := oracle[d]
		for j, dec := range fd.Decided {
			if !dec {
				continue
			}
			decided++
			if fd.Bits.Bits[j] != want.Bits[j] {
				wrong++
			}
		}
	}
	if totalGOBs > 0 {
		avail = float64(availGOBs) / float64(totalGOBs)
	}
	if decided > 0 {
		ber = float64(wrong) / float64(decided)
	}
	return avail, ber
}

// firstDecode is the fleet's time to first decode: from the receiver's
// start to the display-side end of the first data frame with an available
// GOB; +Inf, false when none.
func firstDecode(decoded []*core.FrameDecode, tau int, refreshHz, start float64) (float64, bool) {
	for d, fd := range decoded {
		if fd.AvailableGOBs() > 0 {
			return float64((d+1)*tau)/refreshHz - start, true
		}
	}
	return math.Inf(1), false
}
