package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"ctrlguard/internal/goofi"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rank(tc.n, p) < minBeyond {
			t.Errorf("n=%d p%v leaves %d samples beyond", tc.n, p, tc.n-rank(tc.n, p))
		}
	}
}

func TestSummaryMedianAndTail(t *testing.T) {
	var l latencies
	for i := 1; i <= 100; i++ {
		l.add(time.Duration(i) * time.Second)
	}
	s := l.summary()
	if s.N != 100 || s.Median != 50.5 || s.TailP != 90 || s.Tail != 90 {
		t.Fatalf("summary = %+v, want n=100 median 50.5 p90 90", s)
	}
}

func TestInterquartileMeanDropsOuterQuarters(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{1, 2, 9}, 4},
		{[]float64{100, 2, 3, 1}, 2.5},
		{[]float64{9, 1, 4, 6, 5, 1000, 3, -50}, 4.5},
	} {
		if got := interquartileMean(append([]float64(nil), tc.xs...)); got != tc.want {
			t.Errorf("interquartileMean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestSpeedFactorsScaleEachKindOfTime(t *testing.T) {
	ref := probeRef
	// Wall time doubled by a host running something else on our CPUs,
	// CPU time unchanged: only wall times are scaled.
	stolen := []probeSample{{wall: 2 * ref, cpu: 2 * ref, par: 2}, {wall: 2 * ref, cpu: 2 * ref, par: 2}}
	if w, c := wallFactor(stolen...), cpuFactor(stolen...); w != 0.5 || c != 1 {
		t.Errorf("stolen host: wallFactor %v cpuFactor %v, want 0.5 and 1", w, c)
	}
	// A host running every instruction at half speed: both are.
	slow := []probeSample{{wall: 2 * ref, cpu: 2 * ref, par: 1}, {wall: 2 * ref, cpu: 2 * ref, par: 1}}
	if w, c := wallFactor(slow...), cpuFactor(slow...); w != 0.5 || c != 0.5 {
		t.Errorf("slow host: wallFactor %v cpuFactor %v, want 0.5 and 0.5", w, c)
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "service.job", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10,60); a third sticks out of
		// the parent and counts only up to its end.
		{ID: 2, Parent: 1, Name: "server.submit", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "server.events", Start: 30 * ms, End: 60 * ms},
		{ID: 4, Parent: 1, Name: "server.records", Start: 90 * ms, End: 120 * ms},
		// A grandchild reduces its own parent only.
		{ID: 5, Parent: 3, Name: "goofi.Run", Start: 35 * ms, End: 55 * ms},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"service": 40 * ms,             // 100 - (50 + 10)
		"server":  (30 + 10 + 30) * ms, // submit 30, events 30-20, records 30
		"goofi":   20 * ms,
	}
	for layer, d := range want {
		if self[layer] != d {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], d)
		}
	}
}

func TestSpecsAreAPureFunctionOfTheSeed(t *testing.T) {
	if campaignSeed(7, 3, 1) != campaignSeed(7, 3, 1) {
		t.Fatal("campaign seed not deterministic")
	}
	seen := map[uint64]bool{}
	for _, seed := range []uint64{1, 2} {
		for cycle := 0; cycle < 4; cycle++ {
			for a := 0; a < 4; a++ {
				s := campaignSeed(seed, cycle, a)
				if seen[s] {
					t.Fatalf("campaign seed collision at seed %d cycle %d arm %d", seed, cycle, a)
				}
				seen[s] = true
			}
		}
	}
	for _, n := range []int{4, 100, 2000} {
		sh := refereeShard(9, 2, 1, n, refereeSize)
		if sh.Start < 0 || sh.End > n || sh.Size() != min(n, refereeSize) {
			t.Errorf("referee shard %+v out of range for n=%d", sh, n)
		}
	}

	a, b, c := newClientPlan(5, 0, 300), newClientPlan(5, 0, 300), newClientPlan(6, 0, 300)
	differs := false
	served := map[goofi.CampaignSpec]bool{}
	for j := 0; j < 30; j++ {
		sa, sb, sc := a.next(j), b.next(j), c.next(j)
		if sa != sb {
			t.Fatalf("submission %d differs for one seed: %+v vs %+v", j, sa, sb)
		}
		if repeat := j%repeatEvery == repeatEvery-1; served[sa] != repeat {
			t.Errorf("submission %d: repeat of an earlier spec = %v, want %v", j, served[sa], repeat)
		}
		served[sa] = true
		if sa.Experiments != 300 || (sa.Alg != 1 && sa.Alg != 2) {
			t.Errorf("submission %d spec %+v", j, sa)
		}
		differs = differs || sa != sc
	}
	if !differs {
		t.Error("two seeds generated the same submissions")
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	for _, m := range cfg.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range cfg.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     3,
		seconds:  time.Second,
		trace:    trace,
		work:     t.TempDir(),
		workers:  2,
		small:    true,
		reps:     1,
	}
}

func sameNames(t *testing.T, what string, got map[string]metric, want []string) {
	t.Helper()
	var names []string
	for n, m := range got {
		names = append(names, n)
		if m.Unit == "" {
			t.Errorf("%s: metric %s has no unit", what, n)
		}
	}
	sort.Strings(names)
	w := append([]string(nil), want...)
	sort.Strings(w)
	if len(names) != len(w) {
		t.Fatalf("%s reports %d metrics, BENCHMARK.json lists %d:\n got  %v\n want %v", what, len(names), len(w), names, w)
	}
	for i := range w {
		if names[i] != w[i] {
			t.Fatalf("%s reports %v, BENCHMARK.json lists %v", what, names, w)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real campaigns")
	}
	endToEnd, _ := benchmarkMetrics(t)
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			rep, err := run(context.Background(), smokeOptions(t, wl, false))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			sameNames(t, wl, rep.Metrics, endToEnd)
			for n, m := range rep.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", n, m.Value)
				}
			}
		})
	}
}

func TestSmokeTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real campaigns")
	}
	_, perLayer := benchmarkMetrics(t)
	o := smokeOptions(t, wlExtended, true)
	rep, err := run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	sameNames(t, "traced run", rep.Metrics, perLayer)
	if _, err := os.Stat(spanFile(o.work, o.workload, o.seed)); err != nil {
		t.Errorf("span dump missing: %v", err)
	}
}
