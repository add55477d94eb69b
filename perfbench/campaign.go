package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/goofi"
	"ctrlguard/internal/workload"
)

// refereeSize is the number of experiments of every timed campaign the
// referee re-runs (about 30 ms each on the interpreted solo path).
const refereeSize = 4

// timedCampaign is what the measured loop keeps of one campaign: its
// timing, its record-file digest and the records the referee checks.
type timedCampaign struct {
	arm    arm
	cycle  int
	cfg    goofi.Config
	wall   time.Duration
	cpu    float64 // process CPU seconds spent during the campaign
	speed  float64 // wallFactor of the probe samples on both sides
	cpuSpd float64 // cpuFactor of the same samples
	failed int
	sum    [32]byte
	shard  goofi.Shard
	slice  []goofi.Record
}

// resolve turns an arm's spec into an engine config through the same
// validation path cmd/goofi and ctrlguardd use.
func resolve(a arm, seed uint64, workers int) (goofi.Config, error) {
	cfg, err := a.spec(seed, workers).Resolve()
	if err != nil {
		return goofi.Config{}, fmt.Errorf("%s: %w", a.Name, err)
	}
	return cfg, nil
}

// runCampaign runs one campaign under a goofi.Run span. Traced, it
// also records goofi.setup (Run start to the first OnRecord call) as a
// child span and returns that interval.
func runCampaign(ctx context.Context, cfg goofi.Config, tr *tracer, op string) (*goofi.Result, time.Duration, time.Duration, error) {
	var firstRecord time.Time
	if tr != nil {
		cfg.OnRecord = func(goofi.Record) {
			if firstRecord.IsZero() {
				firstRecord = time.Now()
			}
		}
	}
	sp := tr.open(op, "goofi.Run", spanRef{})
	start := time.Now()
	res, err := goofi.RunContext(ctx, cfg)
	wall := time.Since(start)
	sp.close()
	var setup time.Duration
	if !firstRecord.IsZero() {
		setup = firstRecord.Sub(start)
		tr.record(op, "goofi.setup", sp, start, firstRecord)
	}
	if err != nil {
		return nil, wall, setup, err
	}
	return res, wall, setup, nil
}

// recordsDigest is the SHA-256 of the records' JSONL file bytes.
func recordsDigest(recs []goofi.Record) ([32]byte, error) {
	h := sha256.New()
	if err := goofi.WriteRecords(h, recs); err != nil {
		return [32]byte{}, err
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// campaignSetup performs the campaign workloads' set-up once: assemble
// each program, predecode it and run it fault-free.
func campaignSetup(arms []arm) error {
	seen := map[int]bool{}
	for _, a := range arms {
		if seen[a.Alg] {
			continue
		}
		seen[a.Alg] = true
		v, err := goofi.ResolveVariant(a.Alg, "")
		if err != nil {
			return err
		}
		prog := workload.Program(v)
		cpu.Predecode(prog)
		if out := workload.Run(prog, workload.SpecFor(v)); out.Detected() {
			return fmt.Errorf("golden run of %s trapped: %v", v, out.Trap)
		}
	}
	return nil
}

// campaignLoop runs the arms back to back, cycle after cycle, until
// the budget is spent; only whole cycles run, so every arm weighs the
// same in the aggregate. Each cycle draws fresh engine seeds. A speed
// probe sample before the first campaign and after each one scales
// that campaign's times.
func campaignLoop(ctx context.Context, o options, arms []arm, budget time.Duration, tr *tracer, firstCycle int) ([]timedCampaign, error) {
	var out []timedCampaign
	before := o.probe.sample()
	start := time.Now()
	for cycle := firstCycle; cycle == firstCycle || time.Since(start) < budget; cycle++ {
		for ai, a := range arms {
			cfg, err := resolve(a, campaignSeed(o.seed, cycle, ai), o.workers)
			if err != nil {
				return nil, err
			}
			op := fmt.Sprintf("campaign/%s/%d", a.Name, cycle)
			cpu0 := cpuSeconds()
			res, wall, _, err := runCampaign(ctx, cfg, tr, op)
			if err != nil {
				return nil, fmt.Errorf("%s cycle %d: %w", a.Name, cycle, err)
			}
			tc := timedCampaign{arm: a, cycle: cycle, cfg: cfg, wall: wall, cpu: cpuSeconds() - cpu0,
				failed: res.Faults.Abandoned, shard: refereeShard(o.seed, cycle, ai, a.N, refereeSize)}
			after := o.probe.sample()
			tc.speed, tc.cpuSpd = wallFactor(before, after), cpuFactor(before, after)
			before = after
			if tc.sum, err = recordsDigest(res.Records); err != nil {
				return nil, err
			}
			tc.slice = append([]goofi.Record(nil), res.Records[tc.shard.Start:tc.shard.End]...)
			out = append(out, tc)
		}
	}
	return out, nil
}

// cycleRates returns the interquartile mean over cycles of experiments
// and campaigns per second of campaign wall time, scaled to the
// reference speed unless raw. Dropping the fastest and slowest quarter
// of the cycles keeps a burst of outside load on the machine from
// moving the figure; averaging the middle half keeps more of the
// cycles' fresh engine seeds in it than a median would.
func cycleRates(runs []timedCampaign, raw bool) (expPerS, jobsPerS float64) {
	type acc struct {
		wall       time.Duration
		exps, jobs int
	}
	byCycle := map[int]*acc{}
	for _, tc := range runs {
		a := byCycle[tc.cycle]
		if a == nil {
			a = &acc{}
			byCycle[tc.cycle] = a
		}
		if raw {
			a.wall += tc.wall
		} else {
			a.wall += secs(tc.wall.Seconds() * tc.speed)
		}
		a.exps += tc.arm.N
		a.jobs++
	}
	var exps, jobs []float64
	for _, a := range byCycle {
		exps = append(exps, float64(a.exps)/a.wall.Seconds())
		jobs = append(jobs, float64(a.jobs)/a.wall.Seconds())
	}
	return interquartileMean(exps), interquartileMean(jobs)
}

// referee re-runs a campaign's shard with every fast path off on the
// classic interpreter and demands record-for-record identity with the
// timed run, provenance aside (it names the fast path that produced a
// record, which is the one thing the referee must differ in).
func referee(ctx context.Context, cfg goofi.Config, shard goofi.Shard, want []goofi.Record) error {
	ref := cfg
	ref.DisableWarmStart, ref.DisablePrune, ref.DisableLockstep = true, true, true
	ref.Spec = workload.SpecFor(cfg.Variant)
	ref.Spec.Interpret = true
	ref.Shard = &shard
	res, err := goofi.RunContext(ctx, ref)
	if err != nil {
		return fmt.Errorf("referee run: %w", err)
	}
	if err := sameRecords(res.Records, want); err != nil {
		return fmt.Errorf("shard [%d,%d) vs the referee: %w", shard.Start, shard.End, err)
	}
	return nil
}

// sameRecords compares two record sets record by record, provenance
// aside.
func sameRecords(got, want []goofi.Record) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		a, b := got[i], want[i]
		a.Provenance, b.Provenance = "", ""
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			return fmt.Errorf("record %d differs:\n got  %s\n want %s", b.ID, ja, jb)
		}
	}
	return nil
}

// verifyCampaigns checks every timed campaign against the referee and
// re-runs the first cycle's campaigns, whose record files must come
// out byte-identical.
func verifyCampaigns(ctx context.Context, runs []timedCampaign) error {
	for _, tc := range runs {
		if err := referee(ctx, tc.cfg, tc.shard, tc.slice); err != nil {
			return fmt.Errorf("%s cycle %d seed %d: %w", tc.arm.Name, tc.cycle, tc.cfg.Seed, err)
		}
	}
	for _, tc := range runs {
		if tc.cycle != runs[0].cycle {
			break
		}
		res, err := goofi.RunContext(ctx, tc.cfg)
		if err != nil {
			return fmt.Errorf("%s repeat: %w", tc.arm.Name, err)
		}
		sum, err := recordsDigest(res.Records)
		if err != nil {
			return err
		}
		if sum != tc.sum {
			return fmt.Errorf("%s seed %d: repeated run's record file differs (sha256 %x vs %x)",
				tc.arm.Name, tc.cfg.Seed, sum[:8], tc.sum[:8])
		}
	}
	return nil
}
