package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"sov/internal/detect"
	"sov/internal/isp"
	"sov/internal/nn"
	"sov/internal/parallel"
	"sov/internal/track"
	"sov/internal/vision"
)

// The perception stage is a closed loop of camera frame sets: the
// fixed-point ISP on a stereo pair, support-point stereo on the result,
// int8 TinyYOLO over four cameras in one layer-major batch, and KCF
// tracking of a few targets. nn, vision, isp, track and the fine-grained
// parallel fan-out do nearly all the work; RPR, planning and telemetry do
// none. Frames come from a fixed clip of vision.Scene renders made at
// set-up and replayed in order, so every repeat of a clip frame must give
// the same disparity, boxes and tracks.
const (
	// percClip is the clip length in frames. The tracker restarts at the
	// first frame of every replay, which makes its output repeatable.
	percClip    = 16
	percCameras = 4
	percBoxes   = 5
	percTargets = 3
	// Stereo parameters of the deployed ELAS-style matcher
	// (sensorsync.DepthErrorAtOffset): the search covers depths down to
	// 1.5 m, with 7×7 windows, support points every 8 px and a ±3 px band.
	percMinDepthM = 1.5
	percHalf      = 3
	percStride    = 8
	percBand      = 3
	// Detection thresholds on objectness and NMS overlap.
	percObj = 0.35
	percIoU = 0.5
	// percNominalFrame is about the host time of one frame set on the
	// benchmark host; a run measures its share of --seconds divided by
	// this many frame sets, rounded up to whole clips.
	percNominalFrame = 24 * time.Millisecond
	// percFramePeriod is the camera frame period (30 FPS).
	percFramePeriod = time.Second / 30
	// percSideOffsetM places the two side cameras this far left and right
	// of the stereo rig.
	percSideOffsetM = 1.5
	// percDetScale downscales camera frames for the detector (160×120 to
	// 80×60), as a detector front end does.
	percDetScale = 2
)

// percClipFrames are one clip's raw 8-bit camera frames.
type percClipFrames struct {
	left, right []*vision.QImage    // stereo pair, per frame
	side        [][2]*vision.QImage // two side cameras, per frame
	targets     [][2]float64        // tracker spawn points on frame 0 (px)
}

// percScene draws a seeded scene of textured boxes in front of a
// background plane, with a per-frame motion for each box. The first
// percTargets boxes are near and inside the view, so every seed tracks the
// same number of targets; the rest may sit anywhere.
func percScene(rng *rand.Rand) (vision.Scene, []vision.Box) {
	sc := vision.Scene{Background: rng.Uint32(), BgDepth: 30}
	vel := make([]vision.Box, percBoxes)
	for i := 0; i < percBoxes; i++ {
		b := vision.Box{
			X:       rng.Float64()*3 - 1.5,
			Y:       rng.Float64()*0.4 - 0.2,
			Z:       2.5 + rng.Float64()*6,
			W:       0.6 + rng.Float64()*0.8,
			H:       0.5 + rng.Float64()*0.6,
			Texture: rng.Uint32(),
		}
		if i < percTargets {
			// Target i sits in its own third of the central view, so
			// targets neither leave the frame nor hide each other.
			b.Z = 3 + rng.Float64()*2
			b.X = (-0.36 + 0.24*(float64(i)+0.5) + rng.Float64()*0.08 - 0.04) * b.Z
			b.W, b.H = 0.5+rng.Float64()*0.2, 0.5+rng.Float64()*0.2
		}
		sc.Boxes = append(sc.Boxes, b)
		vel[i] = vision.Box{X: rng.Float64()*0.04 - 0.02, Z: -rng.Float64() * 0.03}
	}
	return sc, vel
}

func renderQ(sc vision.Scene, intr vision.Intrinsics, offset float64, im *vision.Image, scratch *[]vision.Box) *vision.QImage {
	sc.RenderInto(im, intr, offset, scratch)
	return vision.QuantizeImage(im)
}

// makeClip renders the clip: every frame's stereo pair and side views.
func makeClip(seed int64) *percClipFrames {
	rng := rand.New(rand.NewSource(seed))
	sc, vel := percScene(rng)
	rig := vision.DefaultStereoRig()
	intr := rig.Intr
	im := vision.NewImage(intr.W, intr.H)
	var scratch []vision.Box
	c := &percClipFrames{}
	for _, b := range sc.Boxes[:percTargets] {
		c.targets = append(c.targets, [2]float64{intr.Fx*b.X/b.Z + intr.Cx, intr.Fy*b.Y/b.Z + intr.Cy})
	}
	for f := 0; f < percClip; f++ {
		c.left = append(c.left, renderQ(sc, intr, 0, im, &scratch))
		c.right = append(c.right, renderQ(sc, intr, rig.Baseline, im, &scratch))
		c.side = append(c.side, [2]*vision.QImage{
			renderQ(sc, intr, -percSideOffsetM, im, &scratch),
			renderQ(sc, intr, percSideOffsetM, im, &scratch),
		})
		for i := range sc.Boxes {
			sc.Boxes[i].X += vel[i].X
			sc.Boxes[i].Z += vel[i].Z
		}
	}
	return c
}

// percRig is the perception stack with all of its frame buffers.
type percRig struct {
	clip    *percClipFrames
	isp     *isp.QuantPixelPipeline
	model   *nn.QYOLOHead
	maxDisp int

	outL, outR, blurL, blurR *vision.QImage
	disp                     vision.DisparityMap
	stereo                   vision.StereoScratch
	inputs                   []*nn.Tensor
	det                      detect.QuantDetectScratch
	boxes                    [][]detect.BBox
	gray                     *vision.Image
	tracker                  *track.MultiKCF
	tracks                   []track.VisualTarget

	frames int64            // frame sets run so far
	want   [percClip]uint64 // output hash of each clip frame in the warm-up run
}

// percSetup renders the clip and builds the int8 detector, calibrated on
// the first left frame.
func percSetup(seed int64) *percRig {
	clip := makeClip(seed)
	rig := vision.DefaultStereoRig()
	w, h := rig.Intr.W, rig.Intr.H
	r := &percRig{
		clip:    clip,
		isp:     isp.DefaultPixelPipeline().Quantized(),
		maxDisp: int(rig.DisparityFromDepth(percMinDepthM)) + 2,
		outL:    vision.NewQImage(w, h),
		outR:    vision.NewQImage(w, h),
		blurL:   vision.NewQImage(w, h),
		blurR:   vision.NewQImage(w, h),
		gray:    vision.NewImage(w, h),
	}
	dh, dw := h/percDetScale, w/percDetScale
	for i := 0; i < percCameras; i++ {
		r.inputs = append(r.inputs, nn.NewTensor(1, dh, dw))
	}
	calib := nn.NewTensor(1, dh, dw)
	fillTensor(calib, clip.left[0])
	r.model = nn.QuantizeYOLO(nn.NewTinyYOLO(dh, dw, 4, seed), calib)
	return r
}

// fillTensor box-filters an 8-bit frame down by percDetScale into a
// detector input in [0, 1].
func fillTensor(t *nn.Tensor, q *vision.QImage) {
	const k = percDetScale
	const inv = 1 / float32(255*k*k)
	for y := 0; y < t.H; y++ {
		for x := 0; x < t.W; x++ {
			var sum int
			for dy := 0; dy < k; dy++ {
				row := q.Pix[(y*k+dy)*q.W+x*k:]
				for dx := 0; dx < k; dx++ {
					sum += int(row[dx])
				}
			}
			t.Data[y*t.W+x] = float32(sum) * inv
		}
	}
}

// frame runs one frame set and returns its latency and output hash.
func (r *percRig) frame(sp *spans) (time.Duration, uint64) {
	j := int(r.frames % percClip)
	op := r.frames
	r.frames++
	c := r.clip

	root := sp.begin("perception.frame", -1, op)
	t0 := now()

	s := sp.begin("isp", root, op)
	r.isp.ProcessInto(r.outL, r.blurL, c.left[j])
	r.isp.ProcessInto(r.outR, r.blurR, c.right[j])
	sp.end(s)

	s = sp.begin("vision.stereo", root, op)
	vision.SupportPointStereoQuantInto(&r.disp, r.outL, r.outR, r.maxDisp, percHalf, percStride, percBand, &r.stereo)
	sp.end(s)

	fillTensor(r.inputs[0], r.outL)
	fillTensor(r.inputs[1], r.outR)
	fillTensor(r.inputs[2], c.side[j][0])
	fillTensor(r.inputs[3], c.side[j][1])
	s = sp.begin("detect.cnn", root, op)
	r.boxes = detect.RunQuantCNNBatch(r.boxes, r.model, r.inputs, percObj, percIoU, &r.det)
	sp.end(s)

	r.outL.DequantizeInto(r.gray)
	s = sp.begin("track.kcf", root, op)
	at := time.Duration(j) * percFramePeriod
	if j == 0 {
		r.tracker = track.NewMultiKCF()
		r.tracker.Spawn(r.gray, c.targets, at)
	}
	r.tracks = r.tracker.Update(r.gray, at)
	sp.end(s)

	d := now() - t0
	sp.end(root)
	return d, r.outputHash()
}

// outputHash digests the frame set's disparity map, boxes and tracks.
// Tracks are sorted by ID: MultiKCF.Update returns them in map order.
func (r *percRig) outputHash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put32 := func(v float32) {
		binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v))
		h.Write(b[:4])
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, d := range r.disp.D {
		put32(d)
	}
	for cam, bs := range r.boxes {
		put64(uint64(cam)<<32 | uint64(len(bs)))
		for _, x := range bs {
			put32(x.X0)
			put32(x.Y0)
			put32(x.X1)
			put32(x.Y1)
			put32(x.Score)
			put64(uint64(x.Class))
		}
	}
	sort.Slice(r.tracks, func(i, j int) bool { return r.tracks[i].ID < r.tracks[j].ID })
	for _, t := range r.tracks {
		put64(uint64(t.ID))
		put64(math.Float64bits(t.X))
		put64(math.Float64bits(t.Y))
		put64(math.Float64bits(t.Peak))
	}
	return h.Sum64()
}

// percPhase accumulates one measured stretch of frame sets.
type percPhase struct {
	frameMs           []float64
	validSum, liveSum float64
}

// measure runs n frame sets, checking each against its warm-up hash.
func (r *percRig) measure(oc *outcome, ph *percPhase, n int, sp *spans) {
	for i := 0; i < n; i++ {
		j := int(r.frames % percClip)
		d, sum := r.frame(sp)
		ph.frameMs = append(ph.frameMs, ms(d))
		ph.validSum += r.disp.ValidFraction()
		ph.liveSum += float64(len(r.tracks))
		oc.attempted++
		if sum != r.want[j] {
			oc.fail("perception: frame %d (clip frame %d) output hash %x, warm-up run gave %x", r.frames-1, j, sum, r.want[j])
		}
	}
}

// percStage is the perception stack between set-up and measurement, the
// output hashes of the first set-up's warm-up run, and the untraced frame
// sets measured so far.
type percStage struct {
	r     *percRig
	want0 [percClip]uint64
	ph    percPhase
}

// setup renders the clip, builds the detector and runs the clip once, so
// every scratch buffer and pool is warm before timing starts. The warm-up
// run's output hashes are what every measured repeat of a clip frame must
// reproduce; each set-up must also agree with the first.
func (s *percStage) setup(o options, oc *outcome, rep int) (time.Duration, error) {
	t0 := now()
	s.r = percSetup(o.seed)
	for k := range s.r.want {
		_, s.r.want[k] = s.r.frame(nil)
	}
	d := now() - t0
	if rep == 0 {
		s.want0 = s.r.want
		return d, nil
	}
	oc.attempted++
	if s.r.want != s.want0 {
		oc.fail("perception: set-up %d output hashes differ from set-up 0", rep)
	}
	return d, nil
}

// ops is the frame sets to measure for about dur of host time, in whole
// replays of the clip.
func (s *percStage) ops(dur time.Duration, _ bool) int {
	clips := max(1, int(math.Ceil(float64(dur)/float64(percNominalFrame*percClip))))
	return clips * percClip
}

func (s *percStage) run(oc *outcome, _ *env, n int) error {
	s.r.measure(oc, &s.ph, n, nil)
	return nil
}

func (s *percStage) finish(_ options, oc *outcome, e *env) error {
	e.hp.checkpoint()
	oc.set("frames_per_s", "1/s", 1000/mean(s.ph.frameMs))
	oc.set("frame_ms_p50", "ms", median(s.ph.frameMs))
	oc.set("frame_ms_p95", "ms", quantile(s.ph.frameMs, 0.95))
	return nil
}

func (s *percStage) traced(_ options, oc *outcome, e *env, dur time.Duration) error {
	r := s.r
	a := &s.ph
	n := s.ops(dur/2, false)
	r.measure(oc, a, n, nil)

	var b percPhase
	nn0, par0, rt0 := nn.KernelCounterSnapshot(), parallel.CounterSnapshot(), e.rt.snap()
	r.measure(oc, &b, n, e.sp)
	nn1, par1, rt1 := nn.KernelCounterSnapshot(), parallel.CounterSnapshot(), e.rt.snap()
	e.hp.checkpoint()
	frames := float64(len(b.frameMs))
	perFrame := func(d time.Duration) float64 { return ms(d) / frames }
	oc.set("isp.ms_per_frame", "ms", perFrame(e.sp.total("isp")))
	oc.set("vision.stereo_ms_per_frame", "ms", perFrame(e.sp.total("vision.stereo")))
	oc.set("detect.cnn_ms_per_frame", "ms", perFrame(e.sp.total("detect.cnn")))
	oc.set("track.kcf_ms_per_frame", "ms", perFrame(e.sp.total("track.kcf")))
	oc.set("nn.gemm_calls_per_frame", "count", float64(nn1.GEMMDispatches-nn0.GEMMDispatches)/frames)
	oc.set("nn.direct_calls_per_frame", "count", float64(nn1.DirectDispatches-nn0.DirectDispatches)/frames)
	oc.set("parallel.fanouts_per_frame", "count", float64(par1.Runs-par0.Runs)/frames)
	oc.set("runtime.allocs_per_frame", "count", float64(rt1.allocs-rt0.allocs)/frames)
	oc.set("vision.valid_frac", "fraction", b.validSum/frames)
	oc.set("track.live_targets", "count", b.liveSum/frames)
	e.tiles += par1.Tiles - par0.Tiles
	e.poolTiles += par1.PoolTiles - par0.PoolTiles
	e.overhead = append(e.overhead, mean(b.frameMs)/mean(a.frameMs)-1)
	e.summary["perception"] = map[string]any{
		"frames_untraced": len(a.frameMs), "frames_traced": len(b.frameMs),
		"max_disparity": r.maxDisp, "clip_frames": percClip, "cameras": percCameras,
	}
	return nil
}
