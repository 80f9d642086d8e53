package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"sov/internal/telemetry"
)

// The telemetry stage is a single-goroutine closed loop on one LSM
// store with the deployed options. Each epoch ingests one fleet-shaped
// batch (a snapshot per vehicle plus sparse incidents), then runs seeded
// reads: recent-window vehicle-range scans, one vehicle's full history,
// kind-index queries over the last minute, and point gets of earlier keys.
// Reads favour recent time and a skewed set of hot vehicles. A round grows
// the store to tens of MB of user data against a 256 KB memtable, so
// flushes and several compaction tiers run beside the reads, and the kind
// index is kept up to date on ingest. A run measures whole rounds, each
// on a fresh store with the same inputs. An in-harness model of every
// ingested event checks the rows and payload of every read.
const (
	telVehicles    = 1000
	telHotVehicles = 50
	telHotShare    = 0.7 // share of reads aimed at the hot vehicles
	// telIncidentRate is each vehicle's chance per epoch of each incident
	// kind (assign, pickup, dropoff, reactive-brake).
	telIncidentRate = 0.01
	telRoundEpochs  = 200
	// telNominalRound is about the host time of one round on the
	// benchmark host; a run measures its share of --seconds divided by
	// this, rounded up to whole rounds.
	telNominalRound = 8 * time.Second
	// telWarmEpochs are ingested during set-up, followed by the first kind
	// query, which builds the secondary index while the store is small.
	telWarmEpochs = 8

	telWindowVehicles = 50
	telWindowMs       = 10_000
	telKindWindowMs   = 60_000
	telEpochMs        = 1000
	// Reads per epoch: windows and gets every epoch, a history scan every
	// telHistoryEvery epochs and a kind query every telKindEvery.
	telWindowsPerEpoch = 1
	telGetsPerEpoch    = 4
	telHistoryEvery    = 2
	telKindEvery       = 4
)

var telIncidentKinds = []telemetry.Kind{telemetry.KindAssign, telemetry.KindPickup, telemetry.KindDropoff, telemetry.KindReactiveBrake}

var telStates = []string{"idle", "to-pickup", "on-trip", "charging"}

// mix64 is the splitmix64 finalizer: inputs and digests both come from it.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// telRow is the model's copy of one event stored under a vehicle.
type telRow struct {
	t    uint64
	kind telemetry.Kind
	seq  uint32
	ph   uint64 // payload hash
}

// telKindRow is the model's copy of one event in kind-index order.
type telKindRow struct {
	t       uint64
	vehicle uint32
	seq     uint32
	ph      uint64
}

// telModel is the reference model of everything ingested in a round, kept
// in both primary (vehicle, t, kind, seq) and kind-index (kind, t,
// vehicle, seq) order. The batch generator emits vehicles in ascending
// order and each vehicle's events in ascending kind order, and Seq grows
// with submission, so appending keeps both orders sorted.
type telModel struct {
	byVehicle [][]telRow
	byKind    map[telemetry.Kind][]telKindRow
}

func newTelModel() *telModel {
	return &telModel{byVehicle: make([][]telRow, telVehicles+1), byKind: make(map[telemetry.Kind][]telKindRow)}
}

func payloadHash(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

func (m *telModel) add(events []telemetry.Event) {
	for _, e := range events {
		k := e.Key
		ph := payloadHash(e.Payload)
		m.byVehicle[k.Vehicle] = append(m.byVehicle[k.Vehicle], telRow{t: k.TMs, kind: k.Kind, seq: k.Seq, ph: ph})
		m.byKind[k.Kind] = append(m.byKind[k.Kind], telKindRow{t: k.TMs, vehicle: k.Vehicle, seq: k.Seq, ph: ph})
	}
}

// rowDigest folds one row into an order-sensitive digest.
type rowDigest struct {
	h    uint64
	rows int64
}

func (d *rowDigest) add(vehicle uint32, t uint64, kind telemetry.Kind, seq uint32, ph uint64) {
	d.h = mix64(d.h ^ mix64(uint64(vehicle)<<32|uint64(seq)) ^ mix64(t<<16|uint64(kind)) ^ ph)
	d.rows++
}

// window is what a primary-order scan of vehicles [v0, v1] over time
// [lo, hi] must return.
func (m *telModel) window(v0, v1 uint32, lo, hi uint64) rowDigest {
	var d rowDigest
	for v := v0; v <= v1; v++ {
		rows := m.byVehicle[v]
		i := sort.Search(len(rows), func(i int) bool { return rows[i].t >= lo })
		for ; i < len(rows) && rows[i].t <= hi; i++ {
			r := rows[i]
			d.add(v, r.t, r.kind, r.seq, r.ph)
		}
	}
	return d
}

// kind is what ScanByKind over [lo, hi] for one kind must return.
func (m *telModel) kind(k telemetry.Kind, lo, hi uint64) rowDigest {
	var d rowDigest
	rows := m.byKind[k]
	i := sort.Search(len(rows), func(i int) bool { return rows[i].t >= lo })
	for ; i < len(rows) && rows[i].t <= hi; i++ {
		r := rows[i]
		d.add(r.vehicle, r.t, k, r.seq, r.ph)
	}
	return d
}

// telBatch generates epoch e's events into reused buffers: one snapshot
// per vehicle and, with probability telIncidentRate each, an incident of
// every incident kind. Payloads depend only on (seed, vehicle, epoch).
type telBatch struct {
	seed   uint64
	events []telemetry.Event
	arena  []byte
	offs   [][2]int // each event's payload offset and length in arena
}

func (b *telBatch) fill(epoch int) []telemetry.Event {
	b.events, b.arena, b.offs = b.events[:0], b.arena[:0], b.offs[:0]
	t := uint64(epoch) * telEpochMs
	// Payloads are appended to the arena first and sliced out after, so
	// arena growth never leaves an event pointing at a stale array.
	for v := uint32(1); v <= telVehicles; v++ {
		r := mix64(b.seed ^ uint64(v)<<32 ^ uint64(epoch))
		off := len(b.arena)
		b.arena = append(b.arena, `{"soc":`...)
		b.arena = strconv.AppendFloat(b.arena, 0.2+float64(r%8000)/10000, 'f', 4, 64)
		b.arena = append(b.arena, `,"odo_m":`...)
		b.arena = strconv.AppendFloat(b.arena, float64(epoch)*5.6+float64(v%97), 'f', 1, 64)
		b.arena = append(b.arena, `,"state":"`...)
		b.arena = append(b.arena, telStates[(r>>16)%uint64(len(telStates))]...)
		b.arena = append(b.arena, `","trips":`...)
		b.arena = strconv.AppendInt(b.arena, int64(epoch/40)+int64(v%5), 10)
		b.arena = append(b.arena, '}')
		b.offs = append(b.offs, [2]int{off, len(b.arena) - off})
		b.events = append(b.events, telemetry.Event{Key: telemetry.Key{Vehicle: v, TMs: t, Kind: telemetry.KindEpoch}})
		for i, k := range telIncidentKinds {
			x := mix64(r ^ uint64(i+1))
			if float64(x%1_000_000)/1_000_000 >= telIncidentRate {
				continue
			}
			off := len(b.arena)
			b.arena = append(b.arena, `{"rider":`...)
			b.arena = strconv.AppendUint(b.arena, x>>40, 10)
			b.arena = append(b.arena, `,"v":`...)
			b.arena = strconv.AppendFloat(b.arena, float64(x%100000)/100, 'f', 2, 64)
			b.arena = append(b.arena, '}')
			b.offs = append(b.offs, [2]int{off, len(b.arena) - off})
			b.events = append(b.events, telemetry.Event{Key: telemetry.Key{Vehicle: v, TMs: t, Kind: k}})
		}
	}
	for i, s := range b.offs {
		end := s[0] + s[1]
		b.events[i].Payload = b.arena[s[0]:end:end]
	}
	return b.events
}

// telRound is one store grown from empty over telRoundEpochs epochs.
type telRound struct {
	dir   string
	store *telemetry.Store
	model *telModel
	batch *telBatch
	rng   *rand.Rand
	epoch int
}

// telPhase accumulates the measured epochs of one or more rounds.
type telPhase struct {
	epochs                         int
	opTime                         time.Duration // ingest and read calls
	ingestMs                       []float64
	roundP99                       []float64 // each round's ingest p99
	ingestTime                     time.Duration
	events                         int64
	windowMs, historyMs, kindMs    []float64
	getUs                          []float64
	flushStallMs, compactStallMs   []float64
	flushes, compactions           int64
	writeAmp, indexEntries         []float64
	windowRead, windowBytes        int64
	historyRead, historyBytes      int64
	runsAtHistory                  []float64
	gets, getBlocks, getBloomSkips int64
	kindRows                       []float64
	rounds                         int
}

// pick returns a vehicle id: a hot vehicle with probability telHotShare.
func (r *telRound) pick() uint32 {
	if r.rng.Float64() < telHotShare {
		return uint32(1 + r.rng.Intn(telHotVehicles))
	}
	return uint32(1 + r.rng.Intn(telVehicles))
}

func (r *telRound) ingest(ph *telPhase, sp *spans, op int64) error {
	r.epoch++
	events := r.batch.fill(r.epoch)
	before := r.store.Stats()
	s := sp.begin("telemetry.ingest", -1, op)
	t0 := now()
	err := r.store.Ingest(events)
	d := now() - t0
	sp.end(s)
	if err != nil {
		return fmt.Errorf("telemetry: ingest epoch %d: %w", r.epoch, err)
	}
	r.model.add(events)
	if ph == nil {
		return nil
	}
	after := r.store.Stats()
	ph.opTime += d
	ph.ingestTime += d
	ph.ingestMs = append(ph.ingestMs, ms(d))
	ph.events += int64(len(events))
	switch {
	case after.Compactions > before.Compactions:
		ph.compactStallMs = append(ph.compactStallMs, ms(d))
	case after.Flushes > before.Flushes:
		ph.flushStallMs = append(ph.flushStallMs, ms(d))
	}
	return nil
}

// scan runs one primary-order query and digests its rows. The digest runs
// in the scan callback, inside the timed call, as any consumer's work would.
func (r *telRound) scan(q telemetry.Query) (rowDigest, int64, time.Duration, error) {
	var got rowDigest
	var bytes int64
	t0 := now()
	err := r.store.Scan(q, func(e telemetry.Event) bool {
		got.add(e.Key.Vehicle, e.Key.TMs, e.Key.Kind, e.Key.Seq, payloadHash(e.Payload))
		bytes += int64(telemetry.KeySize + len(e.Payload))
		return true
	})
	return got, bytes, now() - t0, err
}

// reads runs the epoch's seeded queries and checks each against the model.
func (r *telRound) reads(oc *outcome, ph *telPhase, sp *spans, op int64) error {
	tNow := uint64(r.epoch) * telEpochMs
	for i := 0; i < telWindowsPerEpoch; i++ {
		v0 := min(r.pick(), telVehicles-telWindowVehicles+1)
		v1 := v0 + telWindowVehicles - 1
		lo := tNow - min(tNow, telWindowMs)
		before := r.store.Stats().RunBytesRead
		s := sp.begin("telemetry.window", -1, op)
		got, n, d, err := r.scan(telemetry.Query{VehicleMin: v0, VehicleMax: v1, TMinMs: lo, TMaxMs: tNow})
		sp.end(s)
		if err != nil {
			return fmt.Errorf("telemetry: window scan: %w", err)
		}
		ph.opTime += d
		ph.windowMs = append(ph.windowMs, ms(d))
		ph.windowRead += r.store.Stats().RunBytesRead - before
		ph.windowBytes += n
		oc.attempted++
		if want := r.model.window(v0, v1, lo, tNow); got != want {
			oc.fail("telemetry: window v%d-%d t%d-%d: %d rows digest %x, want %d rows %x", v0, v1, lo, tNow, got.rows, got.h, want.rows, want.h)
		}
	}

	for i := 0; i < telGetsPerEpoch; i++ {
		v := r.pick()
		rows := r.model.byVehicle[v]
		// Recent rows are likelier: the age in rows is exponential.
		age := min(len(rows)-1, int(r.rng.ExpFloat64()*40))
		row := rows[len(rows)-1-age]
		key := telemetry.Key{Vehicle: v, TMs: row.t, Kind: row.kind, Seq: row.seq}
		before := r.store.Stats()
		s := sp.begin("telemetry.get", -1, op)
		t0 := now()
		p, ok, err := r.store.Get(key)
		d := now() - t0
		sp.end(s)
		if err != nil {
			return fmt.Errorf("telemetry: get: %w", err)
		}
		after := r.store.Stats()
		ph.opTime += d
		ph.getUs = append(ph.getUs, float64(d)/float64(time.Microsecond))
		ph.gets++
		ph.getBlocks += after.BlocksRead - before.BlocksRead
		ph.getBloomSkips += after.BloomSkips - before.BloomSkips
		oc.attempted++
		if !ok || payloadHash(p) != row.ph {
			oc.fail("telemetry: get %+v: found %v, payload hash %x, want %x", key, ok, payloadHash(p), row.ph)
		}
	}

	if r.epoch%telHistoryEvery == 0 {
		v := r.pick()
		before := r.store.Stats().RunBytesRead
		runs, _ := r.store.Runs()
		s := sp.begin("telemetry.history", -1, op)
		got, n, d, err := r.scan(telemetry.Query{VehicleMin: v, VehicleMax: v})
		sp.end(s)
		if err != nil {
			return fmt.Errorf("telemetry: history scan: %w", err)
		}
		ph.opTime += d
		ph.historyMs = append(ph.historyMs, ms(d))
		ph.historyRead += r.store.Stats().RunBytesRead - before
		ph.historyBytes += n
		ph.runsAtHistory = append(ph.runsAtHistory, float64(runs))
		oc.attempted++
		if want := r.model.window(v, v, 0, tNow); got != want {
			oc.fail("telemetry: history v%d: %d rows digest %x, want %d rows %x", v, got.rows, got.h, want.rows, want.h)
		}
	}

	if r.epoch%telKindEvery == 0 {
		k := telIncidentKinds[r.rng.Intn(len(telIncidentKinds))]
		lo := tNow - min(tNow, telKindWindowMs)
		var got rowDigest
		s := sp.begin("telemetry.kind", -1, op)
		t0 := now()
		err := r.store.ScanByKind(telemetry.Query{Kinds: []telemetry.Kind{k}, TMinMs: lo, TMaxMs: tNow}, func(e telemetry.Event) bool {
			got.add(e.Key.Vehicle, e.Key.TMs, e.Key.Kind, e.Key.Seq, payloadHash(e.Payload))
			return true
		})
		d := now() - t0
		sp.end(s)
		if err != nil {
			return fmt.Errorf("telemetry: kind query: %w", err)
		}
		ph.opTime += d
		ph.kindMs = append(ph.kindMs, ms(d))
		ph.kindRows = append(ph.kindRows, float64(got.rows))
		oc.attempted++
		if want := r.model.kind(k, lo, tNow); got != want {
			oc.fail("telemetry: kind %v t%d-%d: %d rows digest %x, want %d rows %x", k, lo, tNow, got.rows, got.h, want.rows, want.h)
		}
	}
	return nil
}

// close closes the round's store and deletes its directory.
func (r *telRound) close() error {
	if err := r.store.Close(); err != nil {
		return fmt.Errorf("telemetry: close store: %w", err)
	}
	return os.RemoveAll(r.dir)
}

// telSetup opens a fresh store, ingests the warm-up epochs and runs the
// first kind query, which builds the secondary index.
func telSetup(o options, tag string) (*telRound, time.Duration, error) {
	t0 := now()
	dir := filepath.Join(o.work, tag)
	st, err := telemetry.Open(dir, telemetry.DefaultOptions())
	if err != nil {
		return nil, 0, fmt.Errorf("telemetry: open store: %w", err)
	}
	r := &telRound{
		dir:   dir,
		store: st,
		model: newTelModel(),
		batch: &telBatch{seed: mix64(uint64(o.seed))},
		rng:   rand.New(rand.NewSource(o.seed)),
	}
	for r.epoch < telWarmEpochs {
		if err := r.ingest(nil, nil, 0); err != nil {
			return nil, 0, err
		}
	}
	err = st.ScanByKind(telemetry.Query{Kinds: []telemetry.Kind{telemetry.KindAssign}}, func(telemetry.Event) bool { return true })
	if err != nil {
		return nil, 0, fmt.Errorf("telemetry: build index: %w", err)
	}
	return r, now() - t0, nil
}

// telRun grows rounds epoch by epoch into one phase, so its measurement
// can stop after any epoch and resume later.
type telRun struct {
	o     options
	tag   string
	ph    telPhase
	cur   *telRound
	first int // index in ph.ingestMs of the current round's first epoch
}

// advance runs n epochs, opening a fresh store whenever no round is in
// progress and closing it after the round's last epoch.
func (t *telRun) advance(oc *outcome, hp *heapPeak, sp *spans, n int) error {
	for i := 0; i < n; i++ {
		if err := t.epoch(oc, hp, sp); err != nil {
			return err
		}
	}
	return nil
}

func (t *telRun) epoch(oc *outcome, hp *heapPeak, sp *spans) error {
	ph := &t.ph
	if t.cur == nil {
		r, _, err := telSetup(t.o, fmt.Sprintf("telemetry-%s-round-%d", t.tag, ph.rounds))
		if err != nil {
			return err
		}
		t.cur, t.first = r, len(ph.ingestMs)
	}
	r := t.cur
	op := int64(ph.rounds)<<32 | int64(r.epoch+1)
	if err := r.ingest(ph, sp, op); err != nil {
		return err
	}
	oc.attempted++
	if err := r.reads(oc, ph, sp, op); err != nil {
		return err
	}
	ph.epochs++
	if r.epoch < telRoundEpochs {
		return nil
	}
	hp.checkpoint()
	ph.roundP99 = append(ph.roundP99, quantile(ph.ingestMs[t.first:], 0.99))
	st := r.store.Stats()
	entries, _ := r.store.IndexSize()
	ph.flushes += st.Flushes
	ph.compactions += st.Compactions
	ph.writeAmp = append(ph.writeAmp, st.WriteAmplification())
	ph.indexEntries = append(ph.indexEntries, float64(entries))
	ph.rounds++
	t.cur = nil
	return r.close()
}

// telStage is the telemetry store stage. Every round opens a fresh
// store, so set-up builds one only to time it.
type telStage struct {
	run0 *telRun // the untraced phase
}

func (s *telStage) setup(o options, _ *outcome, rep int) (time.Duration, error) {
	s.run0 = &telRun{o: o, tag: "untraced"}
	r, d, err := telSetup(o, fmt.Sprintf("telemetry-setup-%d", rep))
	if err != nil {
		return 0, err
	}
	return d, r.close()
}

// ops is the epochs to measure for about dur of host time, in whole
// rounds: every metric then covers the same store sizes in every run.
func (s *telStage) ops(dur time.Duration, _ bool) int {
	rounds := max(1, int(math.Ceil(float64(dur)/float64(telNominalRound))))
	return rounds * (telRoundEpochs - telWarmEpochs)
}

func (s *telStage) run(oc *outcome, e *env, n int) error {
	return s.run0.advance(oc, e.hp, nil, n)
}

func (s *telStage) finish(_ options, oc *outcome, _ *env) error {
	a := &s.run0.ph
	oc.set("ingest_events_per_s", "1/s", float64(a.events)/a.ingestTime.Seconds())
	// Every round ingests the same batches and so stalls on the same
	// compactions: the median of per-round p99s does not depend on how
	// many rounds the run measures.
	oc.set("ingest_ms_p99", "ms", median(a.roundP99))
	oc.set("window_ms_p50", "ms", median(a.windowMs))
	oc.set("history_ms_p50", "ms", median(a.historyMs))
	oc.set("kind_ms_p50", "ms", median(a.kindMs))
	oc.set("get_us_p50", "us", median(a.getUs))
	return nil
}

func (s *telStage) traced(o options, oc *outcome, e *env, dur time.Duration) error {
	n := s.ops(dur/2, false)
	ra := s.run0
	if err := ra.advance(oc, e.hp, nil, n); err != nil {
		return err
	}
	rb := &telRun{o: o, tag: "traced"}
	if err := rb.advance(oc, e.hp, e.sp, n); err != nil {
		return err
	}
	a, b := &ra.ph, &rb.ph
	rounds := float64(b.rounds)
	oc.set("telemetry.flush_stall_ms", "ms", mean(b.flushStallMs))
	oc.set("telemetry.compaction_stall_ms", "ms", mean(b.compactStallMs))
	oc.set("telemetry.flushes", "count", float64(b.flushes)/rounds)
	oc.set("telemetry.compactions", "count", float64(b.compactions)/rounds)
	oc.set("telemetry.write_amp", "ratio", mean(b.writeAmp))
	oc.set("telemetry.read_amp.window", "ratio", ratio(float64(b.windowRead), float64(b.windowBytes)))
	oc.set("telemetry.read_amp.history", "ratio", ratio(float64(b.historyRead), float64(b.historyBytes)))
	oc.set("telemetry.runs", "count", mean(b.runsAtHistory))
	oc.set("telemetry.blocks_per_get", "count", ratio(float64(b.getBlocks), float64(b.gets)))
	oc.set("telemetry.bloom_skips_per_get", "count", ratio(float64(b.getBloomSkips), float64(b.gets)))
	oc.set("telemetry.index_entries", "count", mean(b.indexEntries))
	oc.set("telemetry.kind_rows_per_query", "count", mean(b.kindRows))
	e.overhead = append(e.overhead, (b.opTime.Seconds()/float64(b.epochs))/(a.opTime.Seconds()/float64(a.epochs))-1)
	e.summary["telemetry"] = map[string]any{"rounds_untraced": a.rounds, "rounds_traced": b.rounds, "epochs_per_round": telRoundEpochs - telWarmEpochs}
	return nil
}
