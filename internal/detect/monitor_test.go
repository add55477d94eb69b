package detect

import (
	"math"
	"testing"

	"ctrlguard/internal/workload"
)

// TestCFMonitorCloneAndDigest pins the resumable-monitor contract of
// signature monitoring: a clone is independent of its original, and the
// digest tracks the previous instruction and the running signature but
// not the Entries statistic.
func TestCFMonitorCloneAndDigest(t *testing.T) {
	m := NewCFMonitor(NewBlockGraph(workload.Program(workload.AlgorithmI)))
	m.prev, m.runSig, m.Entries = 7, 0xdead, 3
	base := m.Digest()

	c := m.Clone().(*CFMonitor)
	if c.Digest() != base {
		t.Fatal("clone digests differently from its original")
	}
	c.prev, c.runSig, c.Entries = 8, 0xbeef, 9
	if m.prev != 7 || m.runSig != 0xdead || m.Entries != 3 {
		t.Fatalf("mutating the clone changed the original: %+v", m)
	}

	m.Entries = 100
	if m.Digest() != base {
		t.Error("Entries changed the digest")
	}
	m.prev = 8
	if m.Digest() == base {
		t.Error("prev left the digest unchanged")
	}
	m.prev = 7
	m.runSig ^= 1
	if m.Digest() == base {
		t.Error("runSig left the digest unchanged")
	}
}

// trainingSeries is a short two-element golden series for automaton
// tests.
func trainingSeries() [][]float64 {
	series := make([][]float64, 0, 50)
	for k := 0; k < 50; k++ {
		series = append(series, []float64{math.Sin(float64(k) / 7), float64(k)})
	}
	return series
}

// TestCheckerCloneCopiesHistory pins that a cloned checker owns its
// history: Check reuses the prev backing array, so a re-sliced clone
// would see the original's later vectors.
func TestCheckerCloneCopiesHistory(t *testing.T) {
	series := trainingSeries()
	a := MineSeries(series, MineOptions{})
	c := a.NewChecker()
	if info := c.Check(series[10]); info != "" {
		t.Fatal(info)
	}
	clone := c.Clone()
	if info := c.Check(series[11]); info != "" {
		t.Fatal(info)
	}
	if clone.prev[0] != series[10][0] || clone.prev[1] != series[10][1] {
		t.Fatalf("clone history %v changed with the original's next check, want %v",
			clone.prev, series[10])
	}
	// The clone continues from its own history, in which series[11] is
	// the golden successor.
	if info := clone.Check(series[11]); info != "" {
		t.Errorf("clone rejected the golden successor: %s", info)
	}
}

// TestCheckerDigest pins that the automaton's digest follows its
// sequence history: the seeded latch and every element of the previous
// vector.
func TestCheckerDigest(t *testing.T) {
	a := MineSeries(trainingSeries(), MineOptions{})
	fresh := a.NewChecker().Digest()

	c := &Checker{a: a, prev: []float64{0.5, 3}}
	unseeded := c.Digest()
	c.seeded = true
	seeded := c.Digest()
	if seeded == unseeded {
		t.Error("seeded left the digest unchanged")
	}
	if seeded == fresh || unseeded == fresh {
		t.Error("history vector left the digest unchanged")
	}
	for i := range c.prev {
		old := c.prev[i]
		c.prev[i] = math.Nextafter(old, math.Inf(1))
		if c.Digest() == seeded {
			t.Errorf("prev[%d] left the digest unchanged", i)
		}
		c.prev[i] = old
	}
	if c.Digest() != seeded {
		t.Error("digest is not a function of the state")
	}
}

// TestStackCloneAndDigest pins the combinator: Clone is deep, and the
// digest folds every member's state in order.
func TestStackCloneAndDigest(t *testing.T) {
	prog := workload.Program(workload.AlgorithmI)
	cf := NewCFMonitor(NewBlockGraph(prog))
	am := NewAutomatonMonitor(prog, MineSeries(trainingSeries(), MineOptions{}))
	s := Stack{cf, am}
	base := s.Digest()

	c := s.Clone().(Stack)
	if c.Digest() != base {
		t.Fatal("clone digests differently from its original")
	}
	c[0].(*CFMonitor).prev = 4
	c[1].(*AutomatonMonitor).checker.seeded = true
	if s.Digest() != base {
		t.Error("mutating the clone's members changed the original")
	}
	if c.Digest() == base {
		t.Error("member state left the stack digest unchanged")
	}
	if (Stack{am, cf}).Digest() == base {
		t.Error("stack digest ignores member order")
	}
}

// TestCollectorCloneAndDigest pins that a cloned collector appends to
// its own series and that the digest follows the series.
func TestCollectorCloneAndDigest(t *testing.T) {
	c := &Collector{Series: [][]float64{{1, 2}}}
	base := c.Digest()
	clone := c.Clone().(*Collector)
	clone.Series = append(clone.Series, []float64{3, 4})
	if len(c.Series) != 1 || c.Digest() != base {
		t.Error("appending to the clone changed the original")
	}
	if clone.Digest() == base {
		t.Error("a longer series left the digest unchanged")
	}
}
