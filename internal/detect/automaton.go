package detect

import (
	"fmt"
	"math"

	"ctrlguard/internal/core"
	"ctrlguard/internal/trace"
)

// MineOptions tunes the automaton miner. Zero values select defaults.
type MineOptions struct {
	// Margin widens each element's observed [min, max] envelope by
	// Margin * span on each side (default 0.05).
	Margin float64

	// RateFactor scales the observed maximum per-iteration |delta|
	// into the enforced rate bound (default 1.5).
	RateFactor float64

	// Bins quantises each element's envelope for the state-transition
	// set (default 8).
	Bins int
}

func (o MineOptions) withDefaults() MineOptions {
	if o.Margin <= 0 {
		o.Margin = 0.05
	}
	if o.RateFactor <= 0 {
		o.RateFactor = 1.5
	}
	if o.Bins <= 0 {
		o.Bins = 8
	}
	return o
}

// Elem is the mined behavior of one state element: a value envelope, a
// rate bound, an optional monotonicity direction, and the set of
// quantised bin transitions the golden run exhibited. An element whose
// golden series contained non-finite values is left unconstrained —
// mining never invents a constraint the reference data cannot support.
type Elem struct {
	Constrained bool
	Lo, Hi      float64 // widened envelope
	MaxDelta    float64 // widened rate bound (+Inf when unobservable)
	Monotone    int     // +1 nondecreasing, -1 nonincreasing, 0 none
	Bins        int
	Allowed     []bool // Bins*Bins transition matrix, prev*Bins+cur
}

// Automaton is a behavior-derived state-sequence detector mined from
// golden per-iteration state vectors. The zero-element automaton
// (mined from an empty capture) accepts everything.
type Automaton struct {
	Elems      []Elem
	Iterations int // golden iterations mined
}

// MineSeries mines an automaton from golden per-iteration state
// vectors: series[k] is the vector at iteration k. Short or degenerate
// inputs are valid: an empty series yields an accept-all automaton, a
// single iteration yields envelope-only constraints, and elements with
// NaN/Inf samples are left unconstrained rather than panicking.
func MineSeries(series [][]float64, opts MineOptions) *Automaton {
	opts = opts.withDefaults()
	a := &Automaton{Iterations: len(series)}
	if len(series) == 0 {
		return a
	}
	elems := len(series[0])
	for _, row := range series {
		if len(row) < elems {
			elems = len(row)
		}
	}
	a.Elems = make([]Elem, elems)

	for i := range a.Elems {
		e := &a.Elems[i]
		finite := true
		lo, hi := math.Inf(1), math.Inf(-1)
		maxDelta := 0.0
		up, down := false, false
		for k, row := range series {
			v := row[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
				break
			}
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			if k > 0 {
				d := v - series[k-1][i]
				if math.Abs(d) > maxDelta {
					maxDelta = math.Abs(d)
				}
				if d > 0 {
					up = true
				}
				if d < 0 {
					down = true
				}
			}
		}
		if !finite {
			continue
		}
		e.Constrained = true
		span := hi - lo
		widen := opts.Margin*span + 1e-9*(1+math.Abs(hi))
		e.Lo, e.Hi = lo-widen, hi+widen
		if len(series) > 1 {
			e.MaxDelta = opts.RateFactor*maxDelta + 1e-9*(1+math.Abs(hi))
		} else {
			e.MaxDelta = math.Inf(1)
		}
		switch {
		case up && !down:
			e.Monotone = 1
		case down && !up:
			e.Monotone = -1
		}
		if len(series) > 1 {
			e.Bins = opts.Bins
			e.Allowed = make([]bool, opts.Bins*opts.Bins)
			prev := e.bin(series[0][i])
			for k := 1; k < len(series); k++ {
				cur := e.bin(series[k][i])
				e.Allowed[prev*e.Bins+cur] = true
				prev = cur
			}
		}
	}
	return a
}

// MineFromTrace mines an automaton from the golden side of a captured
// experiment trace: the per-iteration golden state variable and golden
// output form the state vector. Captures without a located state
// variable mine the output series alone; zero-iteration captures yield
// an accept-all automaton.
func MineFromTrace(t *trace.Trace, opts MineOptions) *Automaton {
	if t == nil {
		return &Automaton{}
	}
	var series [][]float64
	for _, it := range t.Iterations {
		if it.Events&trace.EventTrapped != 0 {
			// No output was delivered for a trapped iteration; its
			// golden values are not a behavior sample.
			continue
		}
		if t.Header.HasState {
			series = append(series, []float64{it.XGolden, it.GoldenOutput})
		} else {
			series = append(series, []float64{it.GoldenOutput})
		}
	}
	return MineSeries(series, opts)
}

// bin quantises v into the element's transition bin, clamping values
// outside the envelope into the edge bins.
func (e *Elem) bin(v float64) int {
	if e.Bins <= 1 || e.Hi <= e.Lo {
		return 0
	}
	b := int(float64(e.Bins) * (v - e.Lo) / (e.Hi - e.Lo))
	if b < 0 {
		b = 0
	}
	if b >= e.Bins {
		b = e.Bins - 1
	}
	return b
}

// Checker validates a sequence of state vectors against the automaton.
// It is stateful (the previous accepted vector seeds the rate,
// monotonicity and transition checks) and single-run: use NewChecker
// per run.
type Checker struct {
	a      *Automaton
	prev   []float64
	seeded bool
}

// NewChecker creates a fresh checker over a.
func (a *Automaton) NewChecker() *Checker {
	return &Checker{a: a}
}

// Check validates the next vector of the sequence; a non-empty result
// names the first violated constraint. Accepted vectors advance the
// history; rejected ones leave it unchanged.
func (c *Checker) Check(v []float64) string {
	for i := range c.a.Elems {
		e := &c.a.Elems[i]
		if !e.Constrained || i >= len(v) {
			continue
		}
		x := v[i]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Sprintf("elem %d: non-finite value", i)
		}
		if x < e.Lo || x > e.Hi {
			return fmt.Sprintf("elem %d: value %g outside envelope [%g, %g]", i, x, e.Lo, e.Hi)
		}
		if c.seeded && i < len(c.prev) {
			d := x - c.prev[i]
			if math.Abs(d) > e.MaxDelta {
				return fmt.Sprintf("elem %d: delta %g exceeds rate bound %g", i, d, e.MaxDelta)
			}
			if e.Monotone > 0 && d < 0 || e.Monotone < 0 && d > 0 {
				return fmt.Sprintf("elem %d: non-monotone step %g", i, d)
			}
			if e.Bins > 0 && !e.Allowed[e.bin(c.prev[i])*e.Bins+e.bin(x)] {
				return fmt.Sprintf("elem %d: transition bin %d -> %d never observed",
					i, e.bin(c.prev[i]), e.bin(x))
			}
		}
	}
	c.prev = append(c.prev[:0], v...)
	c.seeded = true
	return ""
}

// Clone returns an independent checker with the same history; the
// history vector is copied, since Check reuses its backing array.
func (c *Checker) Clone() *Checker {
	return &Checker{a: c.a, prev: append([]float64(nil), c.prev...), seeded: c.seeded}
}

// Digest summarises the history the next Check depends on: whether it
// is seeded and the previous accepted vector.
func (c *Checker) Digest() uint64 {
	h := uint64(len(c.prev)) << 1
	if c.seeded {
		h |= 1
	}
	h = digestMix(digestSeed, h)
	for _, v := range c.prev {
		h = digestMix(h, math.Float64bits(v))
	}
	return h
}

// Violations counts how many vectors of a series the automaton rejects
// (each vector checked with a shared history; rejections do not advance
// it). Validating the mined series itself measures the false-positive
// floor — zero by construction for the data the automaton was mined
// from.
func (a *Automaton) Violations(series [][]float64) int {
	c := a.NewChecker()
	n := 0
	for _, v := range series {
		if c.Check(v) != "" {
			n++
		}
	}
	return n
}

// Assertion adapts the automaton to the core executable-assertion
// interfaces: the whole-vector sequence check runs through
// core.VectorAssertion, and the per-element envelope check through the
// ordinary element interface, so a mined automaton drops into
// core.Guard exactly like the paper's range and rate assertions.
type Assertion struct {
	checker *Checker
}

var (
	_ core.Assertion       = (*Assertion)(nil)
	_ core.VectorAssertion = (*Assertion)(nil)
)

// NewAssertion creates a guard assertion evaluating the automaton.
func (a *Automaton) NewAssertion() *Assertion {
	return &Assertion{checker: a.NewChecker()}
}

// CheckVector implements core.VectorAssertion.
func (s *Assertion) CheckVector(v []float64) bool {
	return s.checker.Check(v) == ""
}

// Check implements core.Assertion: the stateless per-element envelope
// check (the sequence checks ran in CheckVector).
func (s *Assertion) Check(i int, v float64) bool {
	if i >= len(s.checker.a.Elems) {
		return true
	}
	e := &s.checker.a.Elems[i]
	if !e.Constrained {
		return true
	}
	return v >= e.Lo && v <= e.Hi
}

// Name implements core.Assertion.
func (s *Assertion) Name() string {
	return fmt.Sprintf("automaton[%d elems, %d iters]",
		len(s.checker.a.Elems), s.checker.a.Iterations)
}

// CloneAssertion implements core.AssertionCloner: the clone shares the
// immutable automaton but starts with fresh sequence history.
func (s *Assertion) CloneAssertion() core.Assertion {
	return s.checker.a.NewAssertion()
}
