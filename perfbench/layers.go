package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"ctrlguard/internal/castore"
	"ctrlguard/internal/classify"
	"ctrlguard/internal/cpu"
	"ctrlguard/internal/goofi"
	"ctrlguard/internal/inject"
	"ctrlguard/internal/journal"
	"ctrlguard/internal/prune"
	"ctrlguard/internal/workload"
)

// The traced run is the same on every workload except for the tracing
// overhead it measures: it probes each layer through its public
// functions, runs every arm of both campaign workloads twice, measures
// the layer ledger and drives a short service session, so each traced
// run reports the full per-layer metric set.

// probeSamples is how many sampled injections the workload, classify
// and prune probes run.
const probeSamples = 32

// serviceProbe is the length of the traced run's service session.
const serviceProbe = 6 * time.Second

func tracedRun(ctx context.Context, o options, dir string) (*report, error) {
	rep := newReport()
	tr := newTracer()

	if err := traceOverhead(ctx, o, dir, tr, rep); err != nil {
		return failCheck(rep, err)
	}
	if err := probeLayers(o, tr, rep); err != nil {
		return failCheck(rep, err)
	}
	recs, err := armPasses(ctx, o, tr, rep)
	if err != nil {
		return failCheck(rep, err)
	}
	if err := probeStores(recs, dir, tr, rep); err != nil {
		return failCheck(rep, err)
	}
	if err := ledger(ctx, o, tr, rep); err != nil {
		return failCheck(rep, err)
	}
	if err := probeServer(ctx, o, dir, tr, rep); err != nil {
		return failCheck(rep, err)
	}

	self := selfTimes(tr.snapshot())
	for _, layer := range spanLayers {
		rep.set("self_ms."+layer, ms(self[layer]), "ms")
	}
	path := spanFile(o.work, o.workload, o.seed)
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rep.note("spans: %d written to %s", len(tr.snapshot()), path)
	return rep, nil
}

// spanLayers are the layers the traced run opens spans for, in report
// order ("service" is the client's own work around a job's calls).
var spanLayers = []string{"cpu", "workload", "prune", "classify", "goofi", "store", "castore", "journal", "server", "service"}

// traceOverhead runs the selected workload untraced for half the
// budget and traced for the other half.
func traceOverhead(ctx context.Context, o options, dir string, tr *tracer, rep *report) error {
	half := o.seconds / 2
	var rates [2]struct{ exp, jobs float64 }
	if o.workload == wlService {
		svc, err := startService(filepath.Join(dir, "overhead"))
		if err != nil {
			return err
		}
		defer svc.stop()
		plans, first := servicePlans(o)
		for i, t := range []*tracer{nil, tr} {
			ss, err := svc.runSession(plans, first, half, t)
			if err != nil {
				return err
			}
			rep.Attempted += int64(ss.attempted)
			rep.Failed += int64(ss.failed)
			rates[i].exp, rates[i].jobs = ss.rates()
		}
	} else {
		arms := armsOf(o.workload, o.small)
		if err := campaignSetup(arms); err != nil {
			return err
		}
		cycle := 0
		for i, t := range []*tracer{nil, tr} {
			runs, err := campaignLoop(ctx, o, arms, half, t, cycle)
			if err != nil {
				return err
			}
			cycle = runs[len(runs)-1].cycle + 1
			for _, tc := range runs {
				rep.Attempted += int64(tc.arm.N)
				rep.Failed += int64(tc.failed)
			}
			rates[i].exp, rates[i].jobs = cycleRates(runs, false)
		}
	}
	rep.set("trace.exp_per_s_untraced", rates[0].exp, "1/s")
	rep.set("trace.exp_per_s_traced", rates[1].exp, "1/s")
	rep.set("trace.jobs_per_s_untraced", rates[0].jobs, "1/s")
	rep.set("trace.jobs_per_s_traced", rates[1].jobs, "1/s")
	rep.set("trace.overhead_x", rates[0].exp/rates[1].exp, "x")
	return nil
}

// probeLayers measures cpu, workload, prune and classify on Algorithm
// I through their public functions.
func probeLayers(o options, tr *tracer, rep *report) error {
	const op = "probe/layers"
	prog := workload.Program(workload.AlgorithmI)
	spec := workload.SpecFor(workload.AlgorithmI)

	d, err := medianTime(21, func(int) error {
		sp := tr.open(op, "cpu.Predecode", spanRef{})
		cpu.Predecode(prog)
		sp.close()
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("cpu.predecode_ms", ms(d), "ms")

	var golden *workload.Outcome
	for _, interp := range []bool{false, true} {
		s := spec
		s.Interpret = interp
		var out *workload.Outcome
		d, err := medianTime(5, func(int) error {
			sp := tr.open(op, "workload.Run", spanRef{})
			out = workload.Run(prog, s)
			sp.close()
			if out.Detected() {
				return fmt.Errorf("fault-free run trapped: %v", out.Trap)
			}
			return nil
		})
		if err != nil {
			return err
		}
		name := "cpu.ns_per_instr"
		if interp {
			name = "cpu.ns_per_instr_interp"
		} else {
			golden = out
		}
		rep.set(name, float64(d.Nanoseconds())/float64(out.Instructions), "ns")
	}

	sampler, err := inject.NewModelSampler(derive(o.seed, tagProbe), golden.Instructions, "", 0)
	if err != nil {
		return err
	}
	injs := make([]*workload.Injection, probeSamples)
	for i := range injs {
		inj := sampler.Next()
		injs[i] = &inj
	}

	solo := make([]*workload.Outcome, len(injs))
	var soloLat latencies
	for i, inj := range injs {
		s := spec
		s.Injection = inj
		sp := tr.open(op, "workload.Run", spanRef{})
		start := time.Now()
		solo[i] = workload.Run(prog, s)
		soloLat.add(time.Since(start))
		sp.close()
	}
	rep.set("workload.solo_ms_per_exp", soloLat.summary().Median*1000, "ms")

	sp := tr.open(op, "workload.RunBatch", spanRef{})
	start := time.Now()
	lanes, ok := workload.RunBatch(prog, spec, injs)
	laneWall := time.Since(start)
	sp.close()
	if !ok {
		return fmt.Errorf("workload.RunBatch declined the fault-free spec")
	}
	for i := range lanes {
		if lanes[i] == nil {
			continue // the fault-free run ends before this injection
		}
		if err := sameOutcome(solo[i], lanes[i]); err != nil {
			return fmt.Errorf("lockstep lane %d (%v) vs solo: %w", i, *injs[i], err)
		}
	}
	rep.set("workload.lane_ms_per_exp", ms(laneWall)/float64(len(injs)), "ms")

	ats := make([]uint64, len(injs))
	for i, inj := range injs {
		ats[i] = inj.At
	}
	slices.Sort(ats)
	k := sort.Search(len(golden.IterationStarts), func(i int) bool { return golden.IterationStarts[i] > ats[len(ats)/2] }) - 1
	k = max(k, 1)
	d, err = medianTime(5, func(int) error {
		sp := tr.open(op, "workload.CaptureCheckpoint", spanRef{})
		_, err := workload.CaptureCheckpoint(prog, spec, k)
		sp.close()
		return err
	})
	if err != nil {
		return err
	}
	rep.set("workload.checkpoint_ms", ms(d), "ms")

	var ix *prune.Index
	d, err = medianTime(3, func(int) error {
		sp := tr.open(op, "prune.Capture", spanRef{})
		c := prune.NewCapture()
		s := spec
		s.Observer = c.Observer()
		out := workload.Run(prog, s)
		ix = c.Finish(out.Instructions)
		sp.close()
		if ix == nil {
			return fmt.Errorf("prune capture could not vouch for the golden run")
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("prune.capture_ms", ms(d), "ms")

	plan := make([]workload.Injection, 2000)
	for i := range plan {
		plan[i] = sampler.Next()
	}
	const fateRounds = 20
	sp = tr.open(op, "prune.Fate", spanRef{})
	start = time.Now()
	for r := 0; r < fateRounds; r++ {
		for _, inj := range plan {
			ix.Fate(inj.Bit, inj.At)
		}
	}
	fate := time.Since(start)
	sp.close()
	rep.set("prune.fate_ns", float64(fate.Nanoseconds())/float64(fateRounds*len(plan)), "ns")

	ccfg := classify.DefaultConfig()
	const classifyRounds = 50
	sp = tr.open(op, "classify.Run", spanRef{})
	start = time.Now()
	for r := 0; r < classifyRounds; r++ {
		for _, out := range solo {
			classify.Run(golden.Outputs, out.Outputs, !slices.Equal(golden.FinalState, out.FinalState), ccfg)
		}
	}
	cl := time.Since(start)
	sp.close()
	rep.set("classify.us_per_call", float64(cl.Nanoseconds())/1e3/float64(classifyRounds*len(solo)), "us")
	return nil
}

// sameOutcome compares the observable parts of two outcomes.
func sameOutcome(a, b *workload.Outcome) error {
	switch {
	case a.Instructions != b.Instructions:
		return fmt.Errorf("instructions %d vs %d", a.Instructions, b.Instructions)
	case (a.Trap == nil) != (b.Trap == nil) || (a.Trap != nil && a.Trap.Error() != b.Trap.Error()):
		return fmt.Errorf("trap %v vs %v", a.Trap, b.Trap)
	case len(a.Outputs) != len(b.Outputs):
		return fmt.Errorf("%d vs %d outputs", len(a.Outputs), len(b.Outputs))
	case !slices.Equal(a.FinalState, b.FinalState):
		return fmt.Errorf("final state differs")
	}
	for i := range a.Outputs {
		if math.Float64bits(a.Outputs[i]) != math.Float64bits(b.Outputs[i]) {
			return fmt.Errorf("output %d: %v vs %v", i, a.Outputs[i], b.Outputs[i])
		}
	}
	return nil
}

// counts are the deterministic engine counters of one campaign; the
// traced run requires them to repeat exactly for the same spec.
type counts map[string]int

func campaignCounts(res *goofi.Result) counts {
	c := counts{}
	if p := res.Prune; p != nil {
		c["prune.planned"] = p.Planned
		c["prune.simulated"] = p.Simulated
		c["prune.dead"] = p.PrunedDead
		c["prune.collapsed"] = p.Collapsed
		c["prune.classes"] = p.Classes
	}
	if w := res.WarmStart; w != nil {
		c["goofi.warm.resumed"] = w.Resumed
		c["goofi.warm.early_exits"] = w.EarlyExits
		c["goofi.warm.checkpoints"] = w.Checkpoints
		c["goofi.warm.cache_hits"] = w.CacheHits
		c["goofi.warm.skipped_instr"] = int(w.SkippedInstructions)
	}
	if l := res.Lockstep; l != nil {
		c["goofi.lockstep.batches"] = l.Batches
		c["goofi.lockstep.lanes"] = l.Lanes
		c["goofi.lockstep.solo"] = l.Solo
		c["goofi.lockstep.k"] = l.K
	}
	if d := res.Detect; d != nil {
		c["detect.cfe_detected"] = d.CFEDetected
		c["detect.automaton_detected"] = d.AutomatonDetected
	}
	c["goofi.faults.retries"] = res.Faults.Retried
	c["goofi.faults.abandoned"] = res.Faults.Abandoned
	return c
}

// diff lists the counts that differ between c and o.
func (c counts) diff(o counts) []string {
	var out []string
	for k := range c {
		if c[k] != o[k] {
			out = append(out, fmt.Sprintf("%s %d vs %d", k, c[k], o[k]))
		}
	}
	for k := range o {
		if _, ok := c[k]; !ok {
			out = append(out, fmt.Sprintf("%s missing vs %d", k, o[k]))
		}
	}
	sort.Strings(out)
	return out
}

// armPasses runs every arm of both campaign workloads twice on cycle
// 0's seeds, asserts that the deterministic counts repeat, and reports
// per-arm times and the engine's counters. It returns the records of
// the largest campaign for the store probes.
func armPasses(ctx context.Context, o options, tr *tracer, rep *report) ([]goofi.Record, error) {
	sums := counts{}
	var setups []float64
	var simWall time.Duration
	simulated := 0
	var detN int
	var detWall time.Duration
	var largest []goofi.Record
	for _, wl := range []string{wlBitflip, wlExtended} {
		for ai, a := range armsOf(wl, o.small) {
			cfg, err := resolve(a, campaignSeed(o.seed, 0, ai), o.workers)
			if err != nil {
				return nil, err
			}
			var walls []float64
			var first counts
			for pass := 0; pass < 2; pass++ {
				op := fmt.Sprintf("arm/%s/%d", a.Name, pass)
				res, wall, setup, err := runCampaign(ctx, cfg, tr, op)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", a.Name, err)
				}
				walls = append(walls, wall.Seconds())
				setups = append(setups, setup.Seconds())
				c := campaignCounts(res)
				if pass == 0 {
					first = c
					for k, v := range c {
						if k != "goofi.lockstep.k" {
							sums[k] += v
						} else {
							sums[k] = max(sums[k], v)
						}
					}
					sim := a.N
					if res.Prune != nil {
						sim = res.Prune.Simulated
					}
					simulated += sim
					simWall += wall - setup
					rep.set("arm."+a.Name+".batches", float64(c["goofi.lockstep.batches"]), "count")
					if a.Detector != "" {
						detN, detWall = a.N, wall
					}
					if len(res.Records) > len(largest) {
						largest = res.Records
					}
				} else if d := first.diff(c); len(d) > 0 {
					return nil, fmt.Errorf("%s seed %d: counts differ between two runs of one spec: %s", a.Name, cfg.Seed, d)
				}
			}
			rep.set("arm."+a.Name+".ms", median(walls)*1000, "ms")
		}
	}
	for _, k := range []string{"prune.dead", "prune.collapsed", "prune.classes",
		"goofi.warm.resumed", "goofi.warm.early_exits", "goofi.warm.checkpoints", "goofi.warm.cache_hits", "goofi.warm.skipped_instr",
		"goofi.lockstep.batches", "goofi.lockstep.lanes", "goofi.lockstep.solo", "goofi.lockstep.k",
		"goofi.faults.retries", "goofi.faults.abandoned", "detect.cfe_detected", "detect.automaton_detected"} {
		rep.set(k, float64(sums[k]), "count")
	}
	rep.set("prune.sim_ratio", float64(sums["prune.simulated"])/float64(sums["prune.planned"]), "ratio")
	rep.set("goofi.setup_ms", median(setups)*1000, "ms")
	rep.set("goofi.ms_per_sim", ms(simWall)/float64(simulated), "ms")

	// The detector arm's cost per experiment against the same campaign
	// unarmed on the solo full-replay path it is forced onto.
	detIdx := len(extendedArms) - 1
	det := armsOf(wlExtended, o.small)[detIdx]
	det.Detector = ""
	cfg, err := resolve(det, campaignSeed(o.seed, 0, detIdx), o.workers)
	if err != nil {
		return nil, err
	}
	cfg.DisableWarmStart, cfg.DisablePrune, cfg.DisableLockstep = true, true, true
	_, unarmed, _, err := runCampaign(ctx, cfg, tr, "arm/unarmed-solo")
	if err != nil {
		return nil, err
	}
	rep.set("detect.overhead_x", (float64(detWall)/float64(detN))/(float64(unarmed)/float64(det.N)), "x")
	return largest, nil
}

// ledger measures Algorithm I campaigns through the chain full replay
// → +warm start → +pruning → +lockstep at n=300 and n=2000. Every stage
// must reproduce the full replay's records, provenance aside.
func ledger(ctx context.Context, o options, tr *tracer, rep *report) error {
	stages := []struct {
		name                  string
		noWarm, noPrune, noLS bool
	}{
		{"full", true, true, true},
		{"warm", false, true, true},
		{"prune", false, false, true},
		{"lockstep", false, false, false},
	}
	for ai, a := range bitflipArms[:2] {
		name := fmt.Sprintf("ledger.n%d", a.N) // the nominal size, also in smoke tests
		if o.small {
			a.N /= 10
		}
		cfg, err := resolve(a, campaignSeed(o.seed, 0, ai), o.workers)
		if err != nil {
			return err
		}
		var walls []time.Duration
		var full []goofi.Record
		for si, st := range stages {
			c := cfg
			c.DisableWarmStart, c.DisablePrune, c.DisableLockstep = st.noWarm, st.noPrune, st.noLS
			res, wall, _, err := runCampaign(ctx, c, tr, fmt.Sprintf("ledger/%s/%s", a.Name, st.name))
			if err != nil {
				return err
			}
			if si == 0 {
				full = res.Records
			} else if err := sameRecords(res.Records, full); err != nil {
				return fmt.Errorf("ledger %s stage %s vs full replay: %w", a.Name, st.name, err)
			}
			walls = append(walls, wall)
			rep.set(name+"."+st.name+"_ms", ms(wall), "ms")
		}
		for i, st := range stages[1:] {
			rep.set(name+"."+st.name+"_x", float64(walls[i])/float64(walls[i+1]), "x")
		}
		rep.note("ledger alg1 n=%d: full %.0f ms, +warm %.0f ms, +prune %.0f ms, +lockstep %.0f ms",
			a.N, ms(walls[0]), ms(walls[1]), ms(walls[2]), ms(walls[3]))
	}
	return nil
}

// probeStores measures the record store, castore and journal on a
// real campaign's records, checking that each hands back the bytes it
// was given.
func probeStores(recs []goofi.Record, dir string, tr *tracer, rep *report) error {
	const op = "probe/stores"
	want, err := recordsDigest(recs)
	if err != nil {
		return err
	}
	segDir := filepath.Join(dir, "probe.records")
	dst := filepath.Join(dir, "probe.jsonl")
	sp := tr.open(op, "store.SegmentAppend", spanRef{})
	start := time.Now()
	seg, _, err := goofi.OpenSegmentStore(segDir, 0)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := seg.Append(r); err != nil {
			seg.Close()
			return err
		}
	}
	if err := seg.Close(); err != nil {
		return err
	}
	appendWall := time.Since(start)
	sp.close()
	rep.set("store.segment_append_us_per_rec", float64(appendWall.Nanoseconds())/1e3/float64(len(recs)), "us")

	sp = tr.open(op, "store.CompactSegments", spanRef{})
	start = time.Now()
	err = goofi.CompactSegments(segDir, dst)
	rep.set("store.compact_ms", ms(time.Since(start)), "ms")
	sp.close()
	if err != nil {
		return err
	}

	sp = tr.open(op, "store.RecordScanner", spanRef{})
	start = time.Now()
	f, err := os.Open(dst)
	if err != nil {
		return err
	}
	sc := goofi.NewRecordScanner(f)
	var back []goofi.Record
	for sc.Scan() {
		back = append(back, sc.Record())
	}
	f.Close()
	scan := time.Since(start)
	sp.close()
	if err := sc.Err(); err != nil {
		return err
	}
	data, err := os.ReadFile(dst)
	if err != nil {
		return err
	}
	if sha256.Sum256(data) != want {
		return fmt.Errorf("compacted segments differ from the appended records' JSONL bytes")
	}
	if len(back) != len(recs) {
		return fmt.Errorf("record scanner returned %d of %d records", len(back), len(recs))
	}
	// A record the scanner decodes differently from what was written is
	// a known defect (it decodes into a reused Record, so an omitted
	// omitempty field keeps the previous record's value); it is counted
	// rather than failing the run.
	bad := 0
	for i := range recs {
		if sameRecords(back[i:i+1], recs[i:i+1]) != nil || back[i].Provenance != recs[i].Provenance {
			bad++
		}
	}
	rep.set("store.scan_mismatched_recs", float64(bad), "count")
	rep.set("store.scan_us_per_rec", float64(scan.Nanoseconds())/1e3/float64(len(back)), "us")

	cs, err := castore.Open(filepath.Join(dir, "probe.cache"), 0)
	if err != nil {
		return err
	}
	const keyRounds = 1000
	keys := make([]string, 10)
	sp = tr.open(op, "castore.Key", spanRef{})
	start = time.Now()
	for i := 0; i < keyRounds; i++ {
		k, err := castore.Key(goofi.EngineVersion, bitflipArms[0].spec(uint64(i), 0))
		if err != nil {
			return err
		}
		keys[i%len(keys)] = k
	}
	keyWall := time.Since(start)
	sp.close()
	rep.set("castore.key_us", float64(keyWall.Nanoseconds())/1e3/keyRounds, "us")
	put, err := medianTime(len(keys), func(i int) error {
		sp := tr.open(op, "castore.Put", spanRef{})
		defer sp.close()
		return cs.Put(keys[i], data)
	})
	if err != nil {
		return err
	}
	rep.set("castore.put_ms", ms(put), "ms")
	get, err := medianTime(len(keys), func(i int) error {
		sp := tr.open(op, "castore.Get", spanRef{})
		got, ok, err := cs.Get(keys[i])
		sp.close()
		if err != nil || !ok || !bytes.Equal(got, data) {
			return fmt.Errorf("castore get %s: ok=%v err=%v", keys[i][:12], ok, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("castore.get_ms", ms(get), "ms")

	jpath := filepath.Join(dir, "probe.wal")
	j, _, err := journal.Open(jpath)
	if err != nil {
		return err
	}
	const appends = 50
	app, err := medianTime(appends, func(i int) error {
		sp := tr.open(op, "journal.Append", spanRef{})
		defer sp.close()
		return j.Append(journal.Entry{Job: "c000001", Type: journal.EventProgress, Done: i, Total: appends})
	})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	rep.set("journal.append_us", float64(app.Nanoseconds())/1e3, "us")
	var entries []journal.Entry
	open, err := medianTime(5, func(int) error {
		sp := tr.open(op, "journal.Open", spanRef{})
		defer sp.close()
		j, es, err := journal.Open(jpath)
		if err != nil {
			return err
		}
		entries = es
		return j.Close()
	})
	if err != nil {
		return err
	}
	if len(entries) != appends {
		return fmt.Errorf("journal replayed %d entries, appended %d", len(entries), appends)
	}
	rep.set("journal.open_ms", ms(open), "ms")
	return nil
}

// probeServer runs a short traced closed-loop session and reports the
// service's phases as its clients and job views see them.
func probeServer(ctx context.Context, o options, dir string, tr *tracer, rep *report) error {
	svc, err := startService(filepath.Join(dir, "probe.svc"))
	if err != nil {
		return err
	}
	defer svc.stop()
	plans, first := servicePlans(o)
	// A seed of its own keeps this session's specs apart from the
	// overhead session's.
	for k := range plans {
		plans[k].seed = derive(o.seed, tagProbe, uint64(k))
	}
	probe := serviceProbe
	if o.small {
		probe = time.Second
	}
	ss, err := svc.runSession(plans, first, probe, tr)
	if err != nil {
		return err
	}
	rep.Attempted += int64(ss.attempted)
	rep.Failed += int64(ss.failed)
	var submit, wait, runL, notify latencies
	for _, jr := range ss.jobs {
		submit.add(jr.submit)
		v := jr.final
		if v.Started == nil || v.Finished == nil {
			return fmt.Errorf("job %s view lacks start/finish times", v.ID)
		}
		wait.add(v.Started.Sub(v.Created))
		runL.add(v.Finished.Sub(*v.Started))
		notify.add(jr.terminal.Sub(*v.Finished))
	}
	rep.set("server.submit_ms_p50", submit.summary().Median*1000, "ms")
	rep.set("server.queue_wait_ms_p50", wait.summary().Median*1000, "ms")
	rep.set("server.run_ms_p50", runL.summary().Median*1000, "ms")
	rep.set("server.notify_ms_p50", notify.summary().Median*1000, "ms")
	hits, misses := ss.delta["cache_hits"], ss.delta["cache_misses"]
	rep.set("server.cache_hit_ratio", hits/max(hits+misses, 1), "ratio")
	rep.set("server.throttled", ss.delta["requests_throttled"], "count")
	rep.set("server.shed", ss.delta["requests_shed"], "count")
	rep.note("service probe: %d jobs in %.1f s", len(ss.jobs), ss.window.Seconds())
	return verifySession(ctx, ss, o.workers, 1)
}
