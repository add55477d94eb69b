// Command perfbench is the repository's benchmark. One invocation runs
// one named workload for a fixed time, checks every output against a
// referee, and prints its metrics; the last line of standard output is
// a JSON object {correct, attempted, failed, metrics}. With -trace 0 the
// metrics are the end-to-end ones; with -trace 1 a traced run reports
// the per-layer ones instead. See README.md in this directory.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload campaign-bitflip --seed 7 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// options is one invocation's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	work     string // scratch root; the run uses a fresh directory under it
	workers  int    // campaign workers, at most the CPU count
	small    bool   // tenfold smaller campaigns (smoke tests)
	reps     int    // set-up repetitions whose median is setup_s
	probe    *speedProbe
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a result plus the human-readable lines printed above it.
type report struct {
	result
	notes []string
}

func newReport() *report {
	return &report{result: result{Correct: true, Metrics: map[string]metric{}}}
}

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: campaign-bitflip, campaign-extended or service-mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input of the run is derived from")
	flag.IntVar(&seconds, "seconds", 25, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run reporting per-layer metrics")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for scratch data and span dumps")
	flag.Parse()
	if !validWorkload(o.workload) || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %v, -seconds > 0 and -trace 0|1\n", workloads)
		os.Exit(2)
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	o.workers = min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	o.reps = 41

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := run(ctx, o)
	if rep != nil {
		for _, line := range rep.notes {
			fmt.Println(line)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if rep != nil && !rep.Correct {
			printResult(rep)
		}
		os.Exit(1)
	}
	printResult(rep)
}

func validWorkload(w string) bool {
	for _, x := range workloads {
		if w == x {
			return true
		}
	}
	return false
}

func printResult(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// run executes one invocation in a fresh scratch directory, removed at
// the end. A failed correctness check returns the report with Correct
// false together with the error.
func run(ctx context.Context, o options) (*report, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if o.workload != wlService {
		if o.probe, err = newSpeedProbe(o.workers); err != nil {
			return nil, err
		}
		defer o.probe.close()
	}
	if o.trace {
		return tracedRun(ctx, o, dir)
	}
	if o.workload == wlService {
		return measureService(ctx, o, dir)
	}
	return measureCampaigns(ctx, o)
}

// failCheck marks the report incorrect and passes the error on.
func failCheck(rep *report, err error) (*report, error) {
	rep.Correct = false
	return rep, err
}

// medianTime runs step reps times and returns the median time.
func medianTime(reps int, step func(i int) error) (time.Duration, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := step(i); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return time.Duration(median(ts) * float64(time.Second)), nil
}

// cpuSeconds is the process's user plus system CPU time so far. Unlike
// wall time it does not grow while the machine's hypervisor runs
// someone else on our CPUs.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB is the process's peak resident set size so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measureCampaigns is the untraced run of a campaign workload.
func measureCampaigns(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	arms := armsOf(o.workload, o.small)
	setup, err := medianTime(o.reps, func(int) error { return campaignSetup(arms) })
	if err != nil {
		return nil, err
	}
	runs, err := campaignLoop(ctx, o, arms, o.seconds, nil, 0)
	if err != nil {
		return nil, err
	}
	rss := maxRSSMB()

	var wall time.Duration
	var cpuS, rawCPUS float64
	var speeds []float64
	for _, tc := range runs {
		rep.Attempted += int64(tc.arm.N)
		rep.Failed += int64(tc.failed)
		wall += tc.wall
		cpuS += tc.cpu * tc.cpuSpd
		rawCPUS += tc.cpu
		speeds = append(speeds, tc.speed)
	}
	rep.set("setup_s", setup.Seconds(), "s")
	rep.set("max_rss_mb", rss, "MB")
	rep.set("ok_ratio", 1-float64(rep.Failed)/float64(rep.Attempted), "ratio")
	expPerS, jobsPerS := cycleRates(runs, false)
	rep.set("exp_per_s", expPerS, "1/s")
	rep.set("jobs_per_s", jobsPerS, "1/s")
	rep.set("cpu_ms_per_exp", cpuS*1000/float64(rep.Attempted), "ms")
	rep.note("%s: %d campaigns in %d cycles, %d experiments, %.2f s of campaign wall time, workers=%d",
		o.workload, len(runs), runs[len(runs)-1].cycle+1, rep.Attempted, wall.Seconds(), o.workers)
	rawExp, rawJobs := cycleRates(runs, true)
	noteRaw(rep, speeds, rawExp, rawJobs, rawCPUS*1000/float64(rep.Attempted))
	perArm := map[string]latencies{}
	for _, tc := range runs {
		l := perArm[tc.arm.Name]
		l.add(tc.wall)
		perArm[tc.arm.Name] = l
	}
	for _, a := range arms {
		noteLatency(rep, a.Name+"_ms", perArm[a.Name].summary(), 1000, "ms")
	}

	start := time.Now()
	if err := verifyCampaigns(ctx, runs); err != nil {
		return failCheck(rep, err)
	}
	rep.note("verified: %d referee shards of %d experiments, %d repeated campaigns byte-identical (%.1f s, not timed)",
		len(runs), refereeSize, len(arms), time.Since(start).Seconds())
	return rep, nil
}

// measureService is the untraced run of the service workload.
func measureService(ctx context.Context, o options, dir string) (*report, error) {
	rep := newReport()
	var svc *service
	setup, err := medianTime(o.reps, func(i int) error {
		if svc != nil {
			svc.stop()
		}
		var err error
		if svc, err = startService(filepath.Join(dir, fmt.Sprintf("svc%d", i))); err != nil {
			return err
		}
		// The engine warm-up the first job would otherwise pay inside
		// the timed window.
		return campaignSetup(bitflipArms)
	})
	if err != nil {
		return nil, err
	}
	defer svc.stop()

	plans, first := servicePlans(o)
	cpu0 := cpuSeconds()
	ss, err := svc.runSession(plans, first, o.seconds, nil)
	if err != nil {
		return nil, err
	}
	cpuS := cpuSeconds() - cpu0
	rss := maxRSSMB()

	var jobLat, hitLat, pageLat latencies
	var delivered, hits int
	for _, jr := range ss.jobs {
		jobLat.add(jr.latency)
		if jr.hit {
			hitLat.add(jr.latency)
			hits++
		}
		for _, p := range jr.pages {
			pageLat.add(p)
		}
		delivered += jr.records
	}
	rep.Attempted, rep.Failed = int64(ss.attempted), int64(ss.failed)
	rep.set("setup_s", setup.Seconds(), "s")
	rep.set("max_rss_mb", rss, "MB")
	rep.set("ok_ratio", 1-float64(ss.failed)/float64(ss.attempted), "ratio")
	expPerS, jobsPerS := ss.rates()
	rep.set("exp_per_s", expPerS, "1/s")
	rep.set("jobs_per_s", jobsPerS, "1/s")
	rep.set("cpu_ms_per_exp", cpuS*1000/float64(delivered), "ms")
	rep.note("%s: %d clients, %d jobs (%d cache hits, %d records delivered) in %.2f s, %d failed",
		o.workload, len(plans), len(ss.jobs), hits, delivered, ss.window.Seconds(), ss.failed)
	noteLatency(rep, "job_s", jobLat.summary(), 1, "s")
	noteLatency(rep, "hit_job_ms", hitLat.summary(), 1000, "ms")
	noteLatency(rep, "page_ms", pageLat.summary(), 1000, "ms")

	start := time.Now()
	if err := verifySession(ctx, ss, o.workers, 4); err != nil {
		return failCheck(rep, err)
	}
	rep.note("verified: repeated specs byte-identical across cache misses and hits, sampled specs identical to a direct goofi.Run (%.1f s, not timed)",
		time.Since(start).Seconds())
	return rep, nil
}

// servicePlans builds one client per tenant, capped at the CPU count.
func servicePlans(o options) ([]*clientPlan, []int) {
	clients := min(len(serviceTenants), o.workers)
	n := serviceN
	if o.small {
		n /= 10
	}
	plans := make([]*clientPlan, clients)
	for k := range plans {
		plans[k] = newClientPlan(o.seed, k, n)
	}
	return plans, make([]int, clients)
}

// noteRaw prints the end-to-end figures before scaling to the reference
// speed, and the speed factors that scaled them.
func noteRaw(rep *report, speeds []float64, expPerS, jobsPerS, cpuMsPerExp float64) {
	s := append([]float64(nil), speeds...)
	mid := median(s)
	rep.note("  unscaled: exp_per_s %.4g, jobs_per_s %.4g, cpu_ms_per_exp %.4g", expPerS, jobsPerS, cpuMsPerExp)
	rep.note("  speed factor (reference %v probe ÷ measured): median %.3f, min %.3f, max %.3f (n=%d)",
		probeRef, mid, s[0], s[len(s)-1], len(s))
}

// noteLatency prints a latency the benchmark's way: median, the
// highest percentile with at least ten samples beyond it, and the
// sample count.
func noteLatency(rep *report, name string, s summary, scale float64, unit string) {
	if s.N == 0 {
		rep.note("  %-24s no samples", name)
		return
	}
	tail := "no percentile has 10 samples beyond it"
	if s.TailP > 0 {
		tail = fmt.Sprintf("p%g %.4g %s", s.TailP, s.Tail*scale, unit)
	}
	rep.note("  %-24s p50 %.4g %s, %s (n=%d)", name, s.Median*scale, unit, tail, s.N)
}
