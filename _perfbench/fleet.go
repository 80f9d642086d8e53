package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"sov/internal/core"
	"sov/internal/fleet"
	"sov/internal/obs"
	"sov/internal/parallel"
	"sov/internal/telemetry"
)

// The fleet stage is `sovfleet -cloud`: fleet.New + Step over 1 s
// epochs with the deployed per-vehicle config, the epoch trace and metrics
// on, and the barrier ingesting into a telemetry store. Host time is spent
// in the vehicles' event loops (RPR bitstream swaps and MPC planning), so
// this is where changes to rpr, planning, core and the advance fan-out
// show; telemetry and nn do almost nothing here.
const (
	// fleetVehicles is a multiple of the fleet's advance grain (8), so the
	// advance tiles balance over the two workers.
	fleetVehicles = 64
	fleetRegions  = 4
	fleetEpoch    = time.Second
	// fleetDemandPerHour (per region) keeps riders queued at every
	// barrier, so settle and dispatch have work on every epoch.
	fleetDemandPerHour = 1200
	// fleetNominalEpoch is about the host time of one measured epoch on
	// the benchmark host: a run measures its share of --seconds divided
	// by this many epochs, a count fixed before timing starts, so every
	// run of a seed measures the same epochs.
	fleetNominalEpoch = 240 * time.Millisecond
	// fleetMinEpochs is the fewest epochs an untraced run of the fleet
	// workload measures, so epoch_ms_p90 rests on at least ten slower
	// epochs there.
	fleetMinEpochs = 100
	// fleetCheckEpoch is where every replay of the fleet is fingerprinted.
	// The fingerprint forces one early memtable flush, the same in every
	// replay, measured or not.
	fleetCheckEpoch = 4
	// fleetTracedEpochs is the fewest epochs a traced half profiles, so
	// that every layer reported from the profile collects samples at the
	// profiler's 100 Hz on every workload.
	fleetTracedEpochs = 50
)

// fleetConfig returns the workload's fleet config. Every core.Config knob
// the workload depends on is pinned here: core.DefaultConfig reads
// SOV_PIPELINE and SOV_QUANT from the environment, and an unpinned knob
// would let a CI variable silently change what is measured.
func fleetConfig(seed int64) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Vehicles = fleetVehicles
	cfg.Regions = fleetRegions
	cfg.Seed = seed
	cfg.Epoch = fleetEpoch
	cfg.DemandPerHour = fleetDemandPerHour
	cfg.PerceptionEvery = 0

	v := core.DefaultConfig()
	v.Pipeline = false
	v.PipelineForce = false
	v.Quant = false
	v.Sched = false
	v.Cameras = 1
	v.ControlRate = 10
	v.RPREnabled = true
	v.EMPlanner = false
	cfg.Vehicle = v
	return cfg
}

// digestWriter hashes the fleet's JSONL epoch trace as it is written.
type digestWriter struct {
	h hash.Hash64
	n int64
}

func (d *digestWriter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.h.Write(p)
}

// fleetRig is one fleet with its trace digest and telemetry store.
type fleetRig struct {
	f     *fleet.Fleet
	store *telemetry.Store
	ing   *telemetry.Ingestor
	trace *digestWriter
	dir   string
}

func newFleetRig(seed int64, dir string) (*fleetRig, error) {
	store, err := telemetry.Open(dir, telemetry.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("fleet: open store: %w", err)
	}
	r := &fleetRig{store: store, ing: telemetry.NewIngestor(store), trace: &digestWriter{h: fnv.New64a()}, dir: dir}
	cfg := fleetConfig(seed)
	cfg.Trace = r.trace
	cfg.Cloud = r.ing
	r.f = fleet.New(cfg)
	r.f.AttachMetrics(obs.NewRegistry())
	return r, nil
}

// close flushes and closes the store and deletes its directory.
func (r *fleetRig) close() error {
	err := r.ing.Flush()
	if cerr := r.store.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	return err
}

// fingerprint flushes the store's memtable to a run, so the MANIFEST
// lists it, and hashes everything the fleet has produced so far: the epoch
// trace, the store's I/O counters, every stored row and the MANIFEST.
func (r *fleetRig) fingerprint() (uint64, error) {
	if err := r.f.CloudErr(); err != nil {
		return 0, fmt.Errorf("fleet: cloud uplink: %w", err)
	}
	if err := r.store.Flush(); err != nil {
		return 0, fmt.Errorf("fleet: flush store: %w", err)
	}
	h := fnv.New64a()
	st := r.store.Stats()
	fmt.Fprintf(h, "epochs=%d trace=%x/%d events=%d user=%d wal=%d runw=%d flushes=%d compactions=%d\n",
		r.f.Epochs(), r.trace.h.Sum64(), r.trace.n, st.Events, st.UserBytes, st.WALBytes,
		st.RunBytesWritten, st.Flushes, st.Compactions)
	var kb [18]byte
	err := r.store.Scan(telemetry.Query{}, func(e telemetry.Event) bool {
		binary.BigEndian.PutUint32(kb[0:], e.Key.Vehicle)
		binary.BigEndian.PutUint64(kb[4:], e.Key.TMs)
		binary.BigEndian.PutUint16(kb[12:], uint16(e.Key.Kind))
		binary.BigEndian.PutUint32(kb[14:], e.Key.Seq)
		h.Write(kb[:])
		h.Write(e.Payload)
		return true
	})
	if err != nil {
		return 0, fmt.Errorf("fleet: scan store: %w", err)
	}
	m, err := r.store.ManifestBytes()
	if err != nil {
		return 0, fmt.Errorf("fleet: read manifest: %w", err)
	}
	h.Write(m)
	return h.Sum64(), nil
}

// fleetPhase is one measured stretch of epochs on one fleet.
type fleetPhase struct {
	epochMs  []float64
	stepWall time.Duration
	print    uint64 // fingerprint at fleetCheckEpoch
}

// advance steps rig n times, timing each Step alone. It fingerprints the
// fleet when it reaches fleetCheckEpoch, so a phase that is checked must
// run past it.
func (ph *fleetPhase) advance(rig *fleetRig, n int, sp *spans) error {
	for i := 0; i < n; i++ {
		op := int64(rig.f.Epochs() + 1)
		s := sp.begin("fleet.epoch", -1, op)
		t0 := now()
		rig.f.Step()
		d := now() - t0
		sp.end(s)
		ph.stepWall += d
		ph.epochMs = append(ph.epochMs, ms(d))
		if rig.f.Epochs() == fleetCheckEpoch {
			fp, err := rig.fingerprint()
			if err != nil {
				return err
			}
			ph.print = fp
		}
	}
	return nil
}

// fleetSetup builds a fleet and runs its first (warm-up) epoch, which
// grows every per-vehicle scratch buffer the steady state reuses.
func fleetSetup(o options, tag string) (*fleetRig, time.Duration, error) {
	t0 := now()
	rig, err := newFleetRig(o.seed, filepath.Join(o.work, tag))
	if err != nil {
		return nil, 0, err
	}
	rig.f.Step()
	return rig, now() - t0, nil
}

// replayFingerprint runs a fresh fleet at the given worker count to
// fleetCheckEpoch and fingerprints it.
func replayFingerprint(o options, workers int, tag string) (uint64, error) {
	defer parallel.SetWorkers(parallel.SetWorkers(workers))
	rig, err := newFleetRig(o.seed, filepath.Join(o.work, tag))
	if err != nil {
		return 0, err
	}
	for rig.f.Epochs() < fleetCheckEpoch {
		rig.f.Step()
	}
	fp, err := rig.fingerprint()
	if cerr := rig.close(); err == nil {
		err = cerr
	}
	return fp, err
}

// fleetStage is the fleet between set-up and measurement, and the
// untraced epochs measured on it so far.
type fleetStage struct {
	rig *fleetRig
	ph  fleetPhase
}

func (s *fleetStage) setup(o options, _ *outcome, rep int) (time.Duration, error) {
	if s.rig != nil {
		if err := s.rig.close(); err != nil {
			return 0, err
		}
	}
	var d time.Duration
	var err error
	s.rig, d, err = fleetSetup(o, fmt.Sprintf("fleet-setup-%d", rep))
	return d, err
}

// ops is the epochs to measure for about dur of host time: at least
// fleetMinEpochs on the fleet workload, and always past fleetCheckEpoch
// (set-up ran the first epoch).
func (s *fleetStage) ops(dur time.Duration, focus bool) int {
	n := max(int(dur/fleetNominalEpoch), fleetCheckEpoch)
	if focus {
		n = max(n, fleetMinEpochs)
	}
	return n
}

func (s *fleetStage) run(_ *outcome, _ *env, n int) error {
	return s.ph.advance(s.rig, n, nil)
}

// settle closes the measured fleet and checks its uplink.
func (s *fleetStage) settle(oc *outcome) {
	oc.attempted += int64(len(s.ph.epochMs))
	if err := s.rig.f.CloudErr(); err != nil {
		oc.fail("fleet: cloud uplink: %v", err)
	}
	if err := s.rig.close(); err != nil {
		oc.fail("fleet: close store: %v", err)
	}
	s.rig = nil
}

// checkPrints replays the fleet at each worker count and checks that the
// epoch-trace and store fingerprints match the measured phase's: they
// must not depend on the worker count or on which replay made them.
func (s *fleetStage) checkPrints(o options, oc *outcome, prints map[string]uint64) error {
	for _, w := range []int{1, benchWorkers} {
		fp, err := replayFingerprint(o, w, fmt.Sprintf("fleet-replay-w%d", w))
		if err != nil {
			return err
		}
		prints[fmt.Sprintf("replay-w%d", w)] = fp
	}
	for _, k := range sortedKeys(prints) {
		oc.attempted++
		if prints[k] != s.ph.print || prints[k] == 0 {
			oc.fail("fleet: fingerprint at epoch %d of %s is %x, measured run %x", fleetCheckEpoch, k, prints[k], s.ph.print)
		}
	}
	return nil
}

func (s *fleetStage) finish(o options, oc *outcome, e *env) error {
	e.hp.checkpoint()
	s.settle(oc)
	if err := s.checkPrints(o, oc, map[string]uint64{"measured": s.ph.print}); err != nil {
		return err
	}
	epochs := float64(len(s.ph.epochMs))
	oc.set("veh_sec_per_s", "1/s", fleetVehicles*epochs*fleetEpoch.Seconds()/s.ph.stepWall.Seconds())
	oc.set("epoch_ms_p50", "ms", median(s.ph.epochMs))
	oc.set("epoch_ms_p90", "ms", quantile(s.ph.epochMs, 0.9))
	return nil
}

func (s *fleetStage) traced(o options, oc *outcome, e *env, dur time.Duration) error {
	if err := s.run(oc, e, s.ops(dur/2, false)); err != nil {
		return err
	}
	e.hp.checkpoint()
	s.settle(oc)
	phA := &s.ph

	// Traced half: a fresh fleet replays the same epochs under the CPU
	// profiler, so its epoch times compare with the untraced half's.
	rigB, _, err := fleetSetup(o, "fleet-traced")
	if err != nil {
		return err
	}
	var phB fleetPhase
	var prof bytes.Buffer
	c0, r0 := parallel.CounterSnapshot(), e.rt.snap()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	err = phB.advance(rigB, max(s.ops(dur/2, false), fleetTracedEpochs), e.sp)
	pprof.StopCPUProfile()
	c1, r1 := parallel.CounterSnapshot(), e.rt.snap()
	if err != nil {
		return err
	}
	e.hp.checkpoint()
	oc.attempted += int64(len(phB.epochMs))
	if err := rigB.f.CloudErr(); err != nil {
		oc.fail("fleet: cloud uplink (traced): %v", err)
	}
	if err := rigB.close(); err != nil {
		oc.fail("fleet: close store (traced): %v", err)
	}
	if err := s.checkPrints(o, oc, map[string]uint64{"measured": phA.print, "traced": phB.print}); err != nil {
		return err
	}

	p, err := decodeCPUProfile(prof.Bytes())
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, fmt.Sprintf("%s-seed%d.cpu.pprof", o.workload, o.seed)), prof.Bytes(), 0o644); err != nil {
		return err
	}
	lay := attributeFleet(p)
	epochs := float64(len(phB.epochMs))
	perEpoch := func(ns int64) float64 { return float64(ns) / 1e6 / epochs }
	oc.set("rpr.require_ms_per_epoch", "ms", perEpoch(lay.Require))
	oc.set("planning.plan_ms_per_epoch", "ms", perEpoch(lay.Plan))
	oc.set("core.advance_ms_per_epoch", "ms", perEpoch(lay.Advance))
	oc.set("sensors.scan_ms_per_epoch", "ms", perEpoch(lay.Sensors))
	oc.set("sim.engine_self_ms_per_epoch", "ms", perEpoch(lay.EngineSelf))
	// The barrier runs on one goroutine, so its CPU time is its wall time;
	// the rest of Step is the advance fan-out.
	advanceWall := phB.stepWall.Seconds() - float64(lay.Barrier)/1e9
	oc.set("parallel.worker_busy_frac", "fraction", ratio(float64(lay.Fanout)/1e9, advanceWall*benchWorkers))
	oc.set("parallel.fanouts_per_epoch", "count", float64(c1.Runs-c0.Runs)/epochs)
	oc.set("runtime.allocs_per_epoch", "count", float64(r1.allocs-r0.allocs)/epochs)
	oc.set("runtime.gc_cpu_frac", "fraction", ratio(r1.gcCPU-r0.gcCPU, r1.allCP-r0.allCP))
	// Shares of all profiled CPU time, comparable with the cum% column of
	// `go tool pprof -top -cum` on the written profile.
	oc.set("rpr.require_share", "fraction", ratio(float64(lay.Require), float64(p.totalNanos)))
	oc.set("planning.plan_share", "fraction", ratio(float64(lay.Plan), float64(p.totalNanos)))
	e.tiles += c1.Tiles - c0.Tiles
	e.poolTiles += c1.PoolTiles - c0.PoolTiles
	n := min(len(phA.epochMs), len(phB.epochMs))
	e.overhead = append(e.overhead, mean(phB.epochMs[:n])/mean(phA.epochMs[:n])-1)
	e.summary["fleet"] = map[string]any{"epochs_untraced": len(phA.epochMs), "epochs_traced": len(phB.epochMs), "layers_ns": lay, "profile_ns": p.totalNanos}
	return nil
}

// fleetLayers is CPU time, in nanoseconds, attributed to each layer from
// the traced half's profile. A sample counts toward every layer whose
// entry point its stack passes through, as pprof's cumulative column does.
type fleetLayers struct {
	Require    int64 `json:"rpr_require"`
	Plan       int64 `json:"planning_plan"`
	Advance    int64 `json:"core_advance"`
	Sensors    int64 `json:"sensors_scan"`
	EngineSelf int64 `json:"sim_engine_self"`
	Barrier    int64 `json:"fleet_barrier"`
	Fanout     int64 `json:"fleet_advance_fanout"`
}

// Entry points the profile is attributed by.
const (
	fnRequire = "sov/internal/rpr.(*Manager).Require"
	fnPlan    = "sov/internal/planning.(*MPC).Plan"
	fnAdvance = "sov/internal/core.(*SoV).AdvanceTo"
	fnStep    = "sov/internal/fleet.(*Fleet).Step"
	fnFanout  = "sov/internal/fleet.(*Fleet).advanceRange"
	fnFor     = "sov/internal/parallel.For"
	pkgSens   = "sov/internal/sensors."
	pkgSim    = "sov/internal/sim."
	pkgSimRNG = "sov/internal/sim.(*RNG)."
	pkgTelem  = "sov/internal/telemetry."
	pkgModule = "sov/"
)

func attributeFleet(p *cpuProfile) fleetLayers {
	var l fleetLayers
	for _, s := range p.samples {
		var inRequire, inPlan, inAdvance, inSens, inStep, inFanout, inTelem, fanWait bool
		innermost := ""
		for i, fn := range s.stack {
			if innermost == "" && strings.HasPrefix(fn, pkgModule) {
				innermost = fn
			}
			switch {
			case fn == fnRequire:
				inRequire = true
			case fn == fnPlan:
				inPlan = true
			case fn == fnAdvance:
				inAdvance = true
			case fn == fnStep:
				inStep = true
			case fn == fnFanout:
				inFanout = true
			case fn == fnFor && i+1 < len(s.stack) && s.stack[i+1] == fnStep:
				// Step's own goroutine inside the advance fan-out:
				// running tiles or waiting for the other worker's.
				fanWait = true
			case strings.HasPrefix(fn, pkgSens):
				inSens = true
			case strings.HasPrefix(fn, pkgTelem):
				inTelem = true
			}
		}
		add := func(dst *int64, on bool) {
			if on {
				*dst += s.nanos
			}
		}
		add(&l.Require, inRequire)
		add(&l.Plan, inPlan)
		add(&l.Advance, inAdvance)
		add(&l.Sensors, inSens)
		add(&l.Fanout, inFanout)
		add(&l.EngineSelf, strings.HasPrefix(innermost, pkgSim) && !strings.HasPrefix(innermost, pkgSimRNG))
		add(&l.Barrier, (inStep || inTelem) && !inFanout && !fanWait)
	}
	return l
}
