package detect

import (
	"math"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/workload"
)

// The per-iteration state vector the automaton family observes on the
// simulated CPU: the workload's controller state doubles (the same
// data labels internal/trace tracks — x for the SISO variants, x1/x2
// for MIMO), read non-perturbingly at each iteration boundary.
var stateLabelCandidates = []string{"x", "x1", "x2"}

// StateAddrs locates the observable state doubles of a program, in
// label order. Programs without any known label yield an empty slice —
// the automaton then has nothing to watch and accepts every run.
func StateAddrs(prog *cpu.Program) []uint32 {
	var addrs []uint32
	for _, l := range stateLabelCandidates {
		if a, ok := prog.DataAddr(l); ok {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

var (
	_ workload.Monitor = (*CFMonitor)(nil)
	_ workload.Monitor = (*AutomatonMonitor)(nil)
	_ workload.Monitor = (*Collector)(nil)
	_ workload.Monitor = Stack(nil)
)

// digestSeed starts every monitor digest.
const digestSeed = 0x9e3779b97f4a7c15

// digestMix folds the word v into the running digest h. Each step is a
// bijection of h for fixed v and of v for fixed h, so two states that
// differ in exactly one word always digest differently.
func digestMix(h, v uint64) uint64 {
	h = (h ^ v) * 0xbf58476d1ce4e5b9
	return h ^ h>>31
}

// peekVector reads the state doubles at addrs without perturbing the
// machine.
func peekVector(vm *cpu.CPU, addrs []uint32) []float64 {
	v := make([]float64, len(addrs))
	for i, a := range addrs {
		v[i] = math.Float64frombits(vm.PeekDoubleBits(a))
	}
	return v
}

// Collector is a passive workload.Monitor that gathers the golden
// per-iteration state series the automaton miner consumes. It never
// traps.
type Collector struct {
	addrs  []uint32
	Series [][]float64
}

// NewCollector creates a collector over the program's state doubles.
func NewCollector(prog *cpu.Program) *Collector {
	return &Collector{addrs: StateAddrs(prog)}
}

// OnInstr implements workload.Monitor.
func (c *Collector) OnInstr(int, uint64, *cpu.CPU) *cpu.TrapError {
	return nil
}

// OnIteration implements workload.Monitor.
func (c *Collector) OnIteration(_ int, vm *cpu.CPU) *cpu.TrapError {
	c.Series = append(c.Series, peekVector(vm, c.addrs))
	return nil
}

// Clone implements workload.Monitor. Collected rows are never written
// after they are appended, so the copy shares them.
func (c *Collector) Clone() workload.Monitor {
	return &Collector{addrs: c.addrs, Series: append([][]float64(nil), c.Series...)}
}

// Digest implements workload.Monitor: the series collected so far.
func (c *Collector) Digest() uint64 {
	h := digestMix(digestSeed, uint64(len(c.Series)))
	for _, row := range c.Series {
		for _, v := range row {
			h = digestMix(h, math.Float64bits(v))
		}
	}
	return h
}

// AutomatonMonitor evaluates a mined automaton in-loop: at every
// iteration boundary it reads the state doubles and validates the
// vector against the automaton; a violation traps with
// cpu.MechAutomaton. One monitor serves one run; the shared Automaton
// is read-only.
type AutomatonMonitor struct {
	addrs   []uint32
	checker *Checker
}

// NewAutomatonMonitor creates a monitor evaluating a over the
// program's state doubles.
func NewAutomatonMonitor(prog *cpu.Program, a *Automaton) *AutomatonMonitor {
	return &AutomatonMonitor{addrs: StateAddrs(prog), checker: a.NewChecker()}
}

// OnInstr implements workload.Monitor.
func (m *AutomatonMonitor) OnInstr(int, uint64, *cpu.CPU) *cpu.TrapError {
	return nil
}

// OnIteration implements workload.Monitor.
func (m *AutomatonMonitor) OnIteration(_ int, vm *cpu.CPU) *cpu.TrapError {
	if len(m.addrs) == 0 {
		return nil
	}
	if info := m.checker.Check(peekVector(vm, m.addrs)); info != "" {
		return &cpu.TrapError{Mech: cpu.MechAutomaton, PC: vm.PC, Info: info}
	}
	return nil
}

// Clone implements workload.Monitor; the copy shares the read-only
// automaton and state addresses.
func (m *AutomatonMonitor) Clone() workload.Monitor {
	return &AutomatonMonitor{addrs: m.addrs, checker: m.checker.Clone()}
}

// Digest implements workload.Monitor: the checker's history.
func (m *AutomatonMonitor) Digest() uint64 {
	return m.checker.Digest()
}

// Stack combines monitors: the first non-nil trap wins, in order.
type Stack []workload.Monitor

// OnInstr implements workload.Monitor.
func (s Stack) OnInstr(iteration int, instr uint64, vm *cpu.CPU) *cpu.TrapError {
	for _, m := range s {
		if t := m.OnInstr(iteration, instr, vm); t != nil {
			return t
		}
	}
	return nil
}

// OnIteration implements workload.Monitor.
func (s Stack) OnIteration(iteration int, vm *cpu.CPU) *cpu.TrapError {
	for _, m := range s {
		if t := m.OnIteration(iteration, vm); t != nil {
			return t
		}
	}
	return nil
}

// Clone implements workload.Monitor, cloning every member.
func (s Stack) Clone() workload.Monitor {
	c := make(Stack, len(s))
	for i, m := range s {
		c[i] = m.Clone()
	}
	return c
}

// Digest implements workload.Monitor, folding the members' digests in
// order.
func (s Stack) Digest() uint64 {
	h := digestMix(digestSeed, uint64(len(s)))
	for _, m := range s {
		h = digestMix(h, m.Digest())
	}
	return h
}
