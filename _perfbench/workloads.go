package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"inframe/internal/camera"
	"inframe/internal/channel"
	"inframe/internal/core"
	"inframe/internal/display"
	"inframe/internal/fleet"
	"inframe/internal/frame"
	"inframe/internal/impair"
	"inframe/internal/metrics"
	"inframe/internal/register"
	"inframe/internal/video"
)

// Every knob that takes a worker count is set to workers: one core makes
// run-to-run spread small, and at one worker the monolithic calls
// (channel.Simulate, fleet.Run) are exactly the per-call sequence the
// traced replay calls one by one.
const workers = 1

// scale is the geometry divisor of the scaled paper layout: a 960×540
// panel captured at 640×360 (the pose workload captures at the native
// 1280×720).
const scale = 2

// pass is one fresh, fully set-up instance of a workload. run executes the
// pipeline once; with a nil tracer it calls the monolithic public entry
// points, with a tracer it replays them call by call inside spans. Both
// must produce the same outcome digest.
type pass interface {
	run(tr *tracer) (outcome, error)
}

// workload describes one seeded benchmark input.
type workload struct {
	name string
	// simSeconds is the simulated link time of one pass.
	simSeconds float64
	// setup builds everything a pass needs before its first frame.
	setup func(seed int64, simSeconds float64) (pass, error)
}

// prepare derives a run's seeded inputs ahead of the timed set-ups.
func (w workload) prepare(seed int64) error {
	_, err := w.setup(seed, w.simSeconds)
	return err
}

var workloads = []workload{
	{name: "gray-static", simSeconds: 2, setup: setupGray},
	{name: "sunrise-fleet", simSeconds: 2, setup: setupFleet},
	{name: "pose-tilt20", simSeconds: 1, setup: setupPose},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want gray-static, sunrise-fleet or pose-tilt20)", name)
}

// linkPass is a single receiver behind one simulated link: the gray-static
// and pose-tilt20 workloads.
type linkPass struct {
	l        core.Layout
	m        *core.Multiplexer
	oracle   []*core.DataFrame
	pool     *frame.Pool
	cfg      channel.Config
	rcfg     core.ReceiverConfig
	nDisplay int
	sim      float64
	// calibrate runs blind projective calibration over the leading
	// captures and decodes through the solved pose; tiltDeg is the true
	// camera tilt the corner error is measured against.
	calibrate bool
	tiltDeg   float64
}

// calibCaptures is how many leading captures blind calibration sees.
const calibCaptures = 10

func newLinkPass(seed int64, sim float64, capW, capH int) (*linkPass, error) {
	l, err := core.ScaledPaperLayout(scale)
	if err != nil {
		return nil, err
	}
	pool := frame.NewPool()
	p := core.DefaultParams(l)
	p.Workers = workers
	p.Pool = pool
	stream := core.NewRandomStream(l, seed)
	m, err := core.NewMultiplexer(p, video.Gray(l.FrameW, l.FrameH), stream)
	if err != nil {
		return nil, err
	}
	cfg := channel.DefaultConfig(capW, capH)
	cfg.Workers = workers
	cfg.Pool = pool
	cfg.Camera.BlurRadius = 0
	cfg.Camera.Seed = seed
	cfg.Camera.Workers = workers
	nDisplay := int(sim * cfg.Display.RefreshHz)
	nData := nDisplay / p.Tau
	// The multiplexer reads one data frame ahead; materialize the payload
	// (and the decoder's oracle) before the first frame.
	oracle := make([]*core.DataFrame, nData+1)
	for i := range oracle {
		oracle[i] = stream.DataFrame(i)
	}
	rcfg := core.DefaultReceiverConfig(p, capW, capH)
	rcfg.RefreshHz = cfg.Display.RefreshHz
	rcfg.Exposure = cfg.Camera.Exposure
	rcfg.ReadoutTime = cfg.Camera.ReadoutTime
	rcfg.Workers = workers
	rcfg.Pool = pool
	rcfg.MinCaptureQuality = 0.1
	if err := rcfg.Validate(); err != nil {
		return nil, err
	}
	return &linkPass{l: l, m: m, oracle: oracle[:nData], pool: pool, cfg: cfg, rcfg: rcfg, nDisplay: nDisplay, sim: sim}, nil
}

// setupGray: the paper's bright gray carrier over a clean link, one rigid
// receiver at the scaled capture size.
func setupGray(seed int64, sim float64) (pass, error) {
	return newLinkPass(seed, sim, 1280/scale, 720/scale)
}

// setupPose: gray through a camera tilted 20°, captured at the native
// 1280×720, blindly calibrated before a rectified decode.
func setupPose(seed int64, sim float64) (pass, error) {
	lp, err := newLinkPass(seed, sim, 1280, 720)
	if err != nil {
		return nil, err
	}
	lp.tiltDeg = 20
	lp.cfg.Impair = &impair.Config{Seed: seed, TiltDeg: lp.tiltDeg}
	lp.calibrate = true
	return lp, nil
}

func (lp *linkPass) run(tr *tracer) (outcome, error) {
	o := outcome{SimSeconds: lp.sim, Receivers: 1}
	root := tr.begin("pass")
	var (
		caps  []*frame.Frame
		times []float64
		err   error
	)
	if tr == nil {
		var res *channel.Result
		res, err = channel.Simulate(lp.m, lp.nDisplay, lp.cfg)
		if res != nil {
			caps, times = res.Captures, res.Times
		}
	} else {
		caps, times, err = simulate(tr, lp.m, lp.nDisplay, lp.cfg)
	}
	if err != nil {
		return o, err
	}
	defer func() {
		for _, f := range caps {
			lp.pool.Put(f)
		}
	}()
	rcfg := lp.rcfg
	if lp.calibrate {
		id := tr.begin("register.calibrate")
		t0 := time.Now()
		pose, err := register.CalibrateProjective(lp.l, caps[:min(calibCaptures, len(caps))])
		o.CalibS = time.Since(t0).Seconds()
		tr.end(id)
		if err != nil {
			return o, fmt.Errorf("calibration: %w", err)
		}
		rcfg.Pose = &pose
		o.CornerErrPx = cornerError(lp.l, rcfg.CaptureW, rcfg.CaptureH, lp.tiltDeg, pose)
	}
	id := tr.begin("demux.receiver")
	rcv, err := core.NewReceiver(rcfg)
	tr.end(id)
	if err != nil {
		return o, err
	}
	id = tr.begin("demux.decode")
	decoded, rep := rcv.DecodeCapturesReport(caps, times, lp.cfg.Camera.Exposure, len(lp.oracle))
	tr.end(id)
	if tr != nil {
		// Probes: the first step of blind calibration on this workload's
		// captures, and the per-capture measurement inside the decode.
		probe := tr.begin("probe")
		id := tr.begin("register.detect_quad")
		_, err := register.DetectQuad(caps[:min(calibCaptures, len(caps))])
		tr.end(id)
		if err != nil {
			return o, fmt.Errorf("detect quad: %w", err)
		}
		measureProbe(tr, rcv, caps, times, rep)
		tr.end(probe)
	}
	tr.end(root)
	scoreDecode(&o, decoded, rep, lp.oracle, lp.l, lp.rcfg.Tau, lp.cfg.Display.RefreshHz)
	o.Projective = rep.Registration.Projective
	o.Render = lp.m.RenderStats()
	st := lp.pool.Stats()
	o.PoolGets, o.PoolMisses = st.Gets, st.Misses
	o.PoolHighWater = lp.pool.HighWater().Frames
	return o, nil
}

// measureProbe times the receiver's per-capture measurement, which
// DecodeCapturesReport runs internally, on every capture the decode scored.
// It repeats work the pass already did, so it runs inside a "probe" span
// that the overhead figure excludes.
func measureProbe(tr *tracer, rcv *core.Receiver, caps []*frame.Frame, times []float64, rep *core.DecodeReport) {
	for i, q := range rep.Quality {
		if !q.Scored {
			continue
		}
		id := tr.begin("demux.measure")
		rcv.MeasureCaptureAt(caps[i], times[i])
		tr.end(id)
	}
}

// simulate is channel.Simulate at one worker, call by call: render and
// push every display frame, then capture (clean link); on an impaired link
// each capture is taken as soon as the frames its exposure touches are on
// the monitor, impaired in place, and the delivery stages rewrite the
// sequence. Capture counts and times repeat channel's arithmetic exactly.
func simulate(tr *tracer, m *core.Multiplexer, nDisplay int, cfg channel.Config) ([]*frame.Frame, []float64, error) {
	sim := tr.begin("channel.simulate")
	defer tr.end(sim)
	link, err := channel.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	cam := link.Camera
	camCfg := cam.Config()
	var st *impair.Stack
	period := cam.FramePeriod()
	exposureSpan := cfg.Camera.Exposure + cfg.Camera.ReadoutTime
	dur := float64(nDisplay) / cfg.Display.RefreshHz
	budget := dur - cfg.CameraStart - exposureSpan
	if cfg.Impair.Enabled() {
		st = impair.New(*cfg.Impair)
		period = st.Period(period)
		budget -= cfg.Impair.StartJitter
	}
	nCaps := int(budget / period)
	if nCaps <= 0 {
		return nil, nil, fmt.Errorf("displayed duration too short for any capture")
	}
	caps := make([]*frame.Frame, nCaps)
	times := make([]float64, nCaps)
	for i := range times {
		if st != nil {
			times[i] = st.CaptureTime(i, cfg.CameraStart, period)
		} else {
			times[i] = cfg.CameraStart + float64(i)*period
		}
	}
	frameT := 1 / cfg.Display.RefreshHz
	next := 0
	for k := 0; k < nDisplay; k++ {
		if err := pushFrame(tr, m, link.Display, k); err != nil {
			return nil, nil, err
		}
		// Clean links capture after the last push; impaired ones
		// interleave, as channel does.
		for st != nil && next < nCaps && int(math.Ceil((times[next]+exposureSpan)/frameT)) <= k+1 {
			caps[next] = capture(tr, cam, st, link.Display, times[next], next, camCfg.Exposure)
			next++
		}
	}
	for ; next < nCaps; next++ {
		caps[next] = capture(tr, cam, st, link.Display, times[next], next, camCfg.Exposure)
	}
	if st != nil {
		caps, times = applySequence(tr, st, caps, times, period, camCfg.Pool)
	}
	return caps, times, nil
}

// pushFrame renders display frame k and hands it to the monitor.
func pushFrame(tr *tracer, m *core.Multiplexer, d *display.Display, k int) error {
	id := tr.begin("mux.frame")
	f := m.Frame(k)
	tr.end(id)
	id = tr.begin("display.push")
	err := d.Push(f)
	tr.end(id)
	m.Recycle(f)
	return err
}

// capture exposes capture i and, on an impaired link, applies the
// pixel-domain faults to it.
func capture(tr *tracer, cam *camera.Camera, st *impair.Stack, d *display.Display, t float64, i int, exposure float64) *frame.Frame {
	id := tr.begin("camera.capture")
	f := cam.Capture(d, t, i)
	tr.end(id)
	if st != nil {
		id = tr.begin("impair.apply")
		st.ApplyFrame(f, i, t, exposure)
		tr.end(id)
	}
	return f
}

// applySequence runs the delivery-stage faults (drop, duplicate).
func applySequence(tr *tracer, st *impair.Stack, caps []*frame.Frame, times []float64, period float64, pool *frame.Pool) ([]*frame.Frame, []float64) {
	in := make(map[*frame.Frame]bool, len(caps))
	for _, f := range caps {
		in[f] = true
	}
	id := tr.begin("impair.sequence")
	outCaps, outTimes := st.ApplySequence(caps, times, period, pool)
	tr.end(id)
	kept := 0
	for _, f := range outCaps {
		if in[f] {
			kept++
		}
	}
	tr.count("impair.dropped", len(in)-kept)
	tr.count("impair.duplicated", len(outCaps)-kept)
	return outCaps, outTimes
}

// cornerError is the largest distance, in capture pixels, between the
// solved display→capture homography and the true one at the Block grid's
// corners. The true map is the frontal full-frame scaling followed by the
// pose the impairment stage applied.
func cornerError(l core.Layout, capW, capH int, tiltDeg float64, solved frame.Homography) float64 {
	ff := core.FullFrame(l, capW, capH)
	truth := impair.PoseHomography(capW, capH, tiltDeg, 0, 0).Mul(frame.AxisAlignedHomography(ff.ScaleX, ff.ScaleY, ff.OffX, ff.OffY))
	worst := 0.0
	for _, c := range register.GridCorners(l) {
		tx, ty, ok1 := truth.Apply(c[0], c[1])
		sx, sy, ok2 := solved.Apply(c[0], c[1])
		if !ok1 || !ok2 {
			return math.Inf(1)
		}
		worst = max(worst, math.Hypot(tx-sx, ty-sy))
	}
	return worst
}

// fleetPass is the broadcast workload: one sun-rise transmission decoded by
// the default eight-receiver population.
type fleetPass struct {
	cfg fleet.Config
	sim float64
}

// fleetReceivers is the population size (fleet's default audience).
const fleetReceivers = 8

func setupFleet(seed int64, sim float64) (pass, error) {
	l, err := core.ScaledPaperLayout(scale)
	if err != nil {
		return nil, err
	}
	capW, capH := 1280/scale, 720/scale
	cfg := fleet.DefaultConfig(l, capW, capH, fleetReceivers, seed)
	cfg.Pop = fleetPopulation(seed, cfg.Pop, cfg.Camera)
	cfg.Source = video.NewSunRise(l.FrameW, l.FrameH, seed)
	cfg.Seconds = sim
	cfg.Workers = workers
	if err := cfg.Pop.Validate(); err != nil {
		return nil, err
	}
	return &fleetPass{cfg: cfg, sim: sim}, nil
}

// areaTolerance bounds how far a population's total capture area may sit
// from the population model's mean.
const areaTolerance = 0.03

// popCandidates is how many seed-derived populations balancedPopulation
// considers.
const popCandidates = 256

// balancedPopulation keeps pop's model and picks, among the draws seeded
// seed + k·popStride (k < popCandidates) whose total capture area is within
// areaTolerance of the model's mean, the one whose impairment-profile counts
// sit closest to the model's expected counts (the earliest on ties). A
// fleet pass's cost follows the capture pixels and also moved with the
// profile mix (area-matched seeds still differed by up to ~20%), so this
// holds the work of a pass steady across benchmark seeds while offsets,
// exposure, noise and camera and impairment seeds still vary with the seed.
func balancedPopulation(pop fleet.Population, base camera.Config) fleet.Population {
	const popStride = 1_000_003
	meanArea := 0.0
	for _, sz := range pop.Sizes {
		meanArea += float64(sz[0] * sz[1])
	}
	meanArea *= float64(pop.N) / float64(len(pop.Sizes))
	want := map[string]float64{"clean": pop.CleanFrac * float64(pop.N)}
	for _, prof := range pop.Profiles {
		want[strings.Join(impair.New(prof).Names(), "+")] += (1 - pop.CleanFrac) * float64(pop.N) / float64(len(pop.Profiles))
	}
	seed := pop.Seed
	best, bestDist := seed, math.Inf(1)
	for k := int64(0); k < popCandidates; k++ {
		pop.Seed = seed + k*popStride
		area := 0.0
		got := make(map[string]float64, len(want))
		for i := 0; i < pop.N; i++ {
			spec := pop.Spec(i, base)
			area += float64(spec.Camera.W * spec.Camera.H)
			got[spec.Profile]++
		}
		if math.Abs(area/meanArea-1) > areaTolerance {
			continue
		}
		dist := 0.0
		for prof, n := range want {
			dist += math.Abs(got[prof] - n)
		}
		if dist < bestDist {
			best, bestDist = pop.Seed, dist
		}
	}
	pop.Seed = best
	return pop
}

// populations memoizes balancedPopulation by seed: choosing the population
// is input generation, identical for every pass of a run, not part of the
// program's set-up.
var populations = map[int64]fleet.Population{}

func fleetPopulation(seed int64, pop fleet.Population, base camera.Config) fleet.Population {
	p, ok := populations[seed]
	if !ok {
		p = balancedPopulation(pop, base)
		populations[seed] = p
	}
	return p
}

func (fp *fleetPass) run(tr *tracer) (outcome, error) {
	if tr == nil {
		res, err := fleet.Run(fp.cfg)
		if err != nil {
			return outcome{}, err
		}
		return fleetOutcome(res, fp.sim), nil
	}
	root := tr.begin("pass")
	res, oracleTally, err := fp.replay(tr)
	tr.end(root)
	if err != nil {
		return outcome{}, err
	}
	o := fleetOutcome(res, fp.sim)
	o.Correct, o.Undetected = oracleTally.Correct, oracleTally.Undetected
	o.DataBitsPerGOB, o.Oracle = oracleTally.DataBitsPerGOB, true
	return o, nil
}

// replay is fleet.Run at one worker, call by call: render the transmission
// once onto the shared display, then capture, impair and decode receiver
// by receiver from one shared frame pool. Unlike fleet.Run it sees every
// decoded GOB, so it also returns the oracle tally summed over receivers.
func (fp *fleetPass) replay(tr *tracer) (*fleet.Result, outcome, error) {
	var tally outcome
	run := tr.begin("fleet.run")
	defer tr.end(run)
	cfg := fp.cfg
	nDisplay := int(cfg.Seconds * cfg.Display.RefreshHz)
	nData := nDisplay / cfg.Params.Tau
	pool := frame.NewPool()
	if cfg.PoolCap > 0 {
		pool.SetMaxPerSize(cfg.PoolCap)
	}
	p := cfg.Params
	p.Pool = pool
	p.Workers = cfg.Workers
	stream := core.NewRandomStream(p.Layout, cfg.StreamSeed)
	m, err := core.NewMultiplexer(p, cfg.Source, stream)
	if err != nil {
		return nil, tally, err
	}
	d, err := display.New(cfg.Display)
	if err != nil {
		return nil, tally, err
	}
	for k := 0; k < nDisplay; k++ {
		if err := pushFrame(tr, m, d, k); err != nil {
			return nil, tally, err
		}
	}
	oracle := make([]*core.DataFrame, nData)
	for i := range oracle {
		oracle[i] = stream.DataFrame(i)
	}
	res := &fleet.Result{N: cfg.Pop.N, DataFrames: nData, DisplayFrames: nDisplay, Render: m.RenderStats()}
	var availS, berS, ttfdS metrics.Series
	for i := 0; i < cfg.Pop.N; i++ {
		rr, deg, scored, err := fp.receiver(tr, i, d, pool, oracle)
		if err != nil {
			return nil, tally, fmt.Errorf("receiver %d: %w", i, err)
		}
		tally.Correct += scored.Correct
		tally.Undetected += scored.Undetected
		tally.DataBitsPerGOB = scored.DataBitsPerGOB
		res.Receivers = append(res.Receivers, rr)
		res.Degrade.Merge(&deg)
		availS.Add(rr.Avail)
		berS.Add(rr.BER)
		if rr.Decoded {
			ttfdS.Add(rr.TTFD)
		} else {
			res.NeverDecoded++
		}
	}
	res.BER = fleet.Dist{Mean: berS.Mean()}
	res.TTFD = fleet.Dist{P95: ttfdS.Percentile(0.95)}
	res.Pool = pool.Stats()
	res.PoolHighWater = pool.HighWater()
	return res, tally, nil
}

// receiver captures and decodes fleet member i from the rendered display.
func (fp *fleetPass) receiver(tr *tracer, i int, d *display.Display, pool *frame.Pool, oracle []*core.DataFrame) (fleet.ReceiverResult, metrics.DegradationStats, outcome, error) {
	id := tr.begin("fleet.receiver")
	defer tr.end(id)
	cfg := fp.cfg
	base := cfg.Camera
	base.Pool = pool
	base.Workers = 1
	spec := cfg.Pop.Spec(i, base)
	var deg metrics.DegradationStats
	sched := tr.begin("channel.simulate")
	cam, err := camera.New(spec.Camera)
	if err != nil {
		tr.end(sched)
		return fleet.ReceiverResult{}, deg, outcome{}, err
	}
	period := cam.FramePeriod()
	exposureSpan := spec.Camera.Exposure + spec.Camera.ReadoutTime
	var st *impair.Stack
	if spec.Impair.Enabled() {
		if err := spec.Impair.Validate(); err != nil {
			tr.end(sched)
			return fleet.ReceiverResult{}, deg, outcome{}, err
		}
		st = impair.New(*spec.Impair)
		period = st.Period(period)
	}
	budget := d.Duration() - spec.Start - exposureSpan
	if st != nil {
		budget -= spec.Impair.StartJitter
	}
	var caps []*frame.Frame
	var times []float64
	if nCaps := int(budget / period); nCaps > 0 {
		caps = make([]*frame.Frame, nCaps)
		times = make([]float64, nCaps)
		for j := range times {
			if st != nil {
				times[j] = st.CaptureTime(j, spec.Start, period)
			} else {
				times[j] = spec.Start + float64(j)*period
			}
		}
		for j := range caps {
			caps[j] = capture(tr, cam, st, d, times[j], j, spec.Camera.Exposure)
		}
		if st != nil {
			caps, times = applySequence(tr, st, caps, times, period, pool)
		}
	}
	tr.end(sched)

	rcfg := core.DefaultReceiverConfig(cfg.Params, spec.Camera.W, spec.Camera.H)
	rcfg.RefreshHz = cfg.Display.RefreshHz
	rcfg.Exposure = spec.Camera.Exposure
	rcfg.ReadoutTime = spec.Camera.ReadoutTime
	rcfg.Workers = 1
	rcfg.Pool = pool
	rcfg.MinCaptureQuality = cfg.MinCaptureQuality
	rcfg.RecalibrateEvery = cfg.RecalibrateEvery
	rid := tr.begin("demux.receiver")
	rcv, err := core.NewReceiver(rcfg)
	tr.end(rid)
	if err != nil {
		return fleet.ReceiverResult{}, deg, outcome{}, err
	}
	did := tr.begin("demux.decode")
	decoded, rep := rcv.DecodeCapturesReport(caps, times, spec.Camera.Exposure, len(oracle))
	tr.end(did)
	probe := tr.begin("probe")
	measureProbe(tr, rcv, caps, times, rep)
	tr.end(probe)
	for _, f := range caps {
		pool.Put(f)
	}
	rr := fleet.ReceiverResult{
		Index: i, Profile: spec.Profile,
		CaptureW: spec.Camera.W, CaptureH: spec.Camera.H,
		Start: spec.Start, Captures: len(caps),
		GapFrames: rep.GapFrames, Resyncs: rep.Resyncs,
	}
	rr.Avail, rr.BER = scoreReceiver(decoded, oracle, cfg.Params.Layout)
	rr.TTFD, rr.Decoded = firstDecode(decoded, cfg.Params.Tau, cfg.Display.RefreshHz, spec.Start)
	deg.AddReport(rep)
	var scored outcome
	scoreDecode(&scored, decoded, rep, oracle, cfg.Params.Layout, cfg.Params.Tau, cfg.Display.RefreshHz)
	return rr, deg, scored, nil
}
