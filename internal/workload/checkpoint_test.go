package workload

import (
	"fmt"
	"math"
	"testing"

	"ctrlguard/internal/cpu"
)

// shortSpec trims the paper's 650 iterations so the many full-replay
// reference runs in these tests stay fast.
func shortSpec() RunSpec {
	spec := PaperRunSpec()
	spec.Iterations = 120
	return spec
}

// outcomesIdentical compares every observable field bit-for-bit —
// float comparisons use the raw bits so NaNs and signed zeros count.
func outcomesIdentical(t *testing.T, label string, got, want *Outcome) {
	t.Helper()
	floatsEq := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	if len(got.MultiOutputs) != len(want.MultiOutputs) {
		t.Fatalf("%s: %d output ports, want %d", label, len(got.MultiOutputs), len(want.MultiOutputs))
	}
	for j := range want.MultiOutputs {
		if !floatsEq(got.MultiOutputs[j], want.MultiOutputs[j]) {
			t.Errorf("%s: output port %d trace differs", label, j)
		}
	}
	if !floatsEq(got.Outputs, want.Outputs) {
		t.Errorf("%s: Outputs differ", label)
	}
	if !floatsEq(got.Speeds, want.Speeds) {
		t.Errorf("%s: Speeds differ", label)
	}
	if (got.Trap == nil) != (want.Trap == nil) {
		t.Fatalf("%s: trap %v, want %v", label, got.Trap, want.Trap)
	}
	if got.Trap != nil {
		if got.Trap.Mech != want.Trap.Mech || got.TrapIteration != want.TrapIteration {
			t.Errorf("%s: trap %v at %d, want %v at %d",
				label, got.Trap.Mech, got.TrapIteration, want.Trap.Mech, want.TrapIteration)
		}
	}
	if !cpu.StatesEqual(got.FinalState, want.FinalState) {
		t.Errorf("%s: FinalState differs", label)
	}
	if got.Instructions != want.Instructions {
		t.Errorf("%s: %d instructions, want %d", label, got.Instructions, want.Instructions)
	}
	if len(got.IterationStarts) != len(want.IterationStarts) {
		t.Fatalf("%s: %d iteration starts, want %d",
			label, len(got.IterationStarts), len(want.IterationStarts))
	}
	for i := range want.IterationStarts {
		if got.IterationStarts[i] != want.IterationStarts[i] {
			t.Errorf("%s: IterationStarts[%d] = %d, want %d",
				label, i, got.IterationStarts[i], want.IterationStarts[i])
			break
		}
	}
	if got.Aborted != want.Aborted {
		t.Errorf("%s: Aborted = %v, want %v", label, got.Aborted, want.Aborted)
	}
}

// injections returns a spread of faults at or after instruction lo,
// covering registers, cache metadata and cached data.
func injections(golden *Outcome, k int) []Injection {
	at := golden.IterationStarts[k]
	return []Injection{
		{At: at, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r5", Bit: 3}},
		{At: at + 11, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "pc", Bit: 2}},
		{At: at + 40, Bit: cpu.StateBit{Region: cpu.RegionCache, Element: "line2.data1", Bit: 17}},
		{At: at + 95, Bit: cpu.StateBit{Region: cpu.RegionCache, Element: "line0.dirty", Bit: 0}},
		{At: at + 200, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "flagZ", Bit: 0}},
	}
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	for _, v := range []Variant{AlgorithmI, AlgorithmII, MIMOAlgorithmI} {
		t.Run(string(v), func(t *testing.T) {
			prog := Program(v)
			spec := SpecFor(v)
			spec.Iterations = 120
			golden := Run(prog, spec)

			for _, k := range []int{1, 37, 90} {
				ck, err := CaptureCheckpoint(prog, spec, k)
				if err != nil {
					t.Fatalf("capture at %d: %v", k, err)
				}
				if ck.Iteration() != k {
					t.Fatalf("checkpoint iteration %d, want %d", ck.Iteration(), k)
				}
				if ck.Instructions() != golden.IterationStarts[k] {
					t.Fatalf("checkpoint at %d instructions, want %d",
						ck.Instructions(), golden.IterationStarts[k])
				}

				// Fault-free resume reproduces the golden run.
				warm := spec
				warm.From = ck
				outcomesIdentical(t, "fault-free resume", Run(prog, warm), golden)

				// Injected resumes reproduce injected full replays.
				for _, inj := range injections(golden, k) {
					inj := inj
					full := spec
					full.Injection = &inj
					want := Run(prog, full)

					fast := warm
					fast.Injection = &inj
					outcomesIdentical(t, inj.Bit.String(), Run(prog, fast), want)
				}
			}
		})
	}
}

func TestCheckpointInjectionBeforeCheckpointFallsBack(t *testing.T) {
	prog := Program(AlgorithmI)
	spec := shortSpec()
	ck, err := CaptureCheckpoint(prog, spec, 50)
	if err != nil {
		t.Fatal(err)
	}

	// Injection at instruction 0 (iteration 0) precedes the
	// checkpoint: the run must silently fall back to full replay, not
	// skip the injection or panic.
	inj := Injection{At: 0, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r5", Bit: 3}}
	full := spec
	full.Injection = &inj
	want := Run(prog, full)

	fast := full
	fast.From = ck
	outcomesIdentical(t, "pre-checkpoint injection", Run(prog, fast), want)
}

func TestCaptureFromEarlierCheckpoint(t *testing.T) {
	prog := Program(AlgorithmII)
	spec := shortSpec()

	base, err := CaptureCheckpoint(prog, spec, 20)
	if err != nil {
		t.Fatal(err)
	}
	incSpec := spec
	incSpec.From = base
	incremental, err := CaptureCheckpoint(prog, incSpec, 80)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := CaptureCheckpoint(prog, spec, 80)
	if err != nil {
		t.Fatal(err)
	}
	if incremental.Instructions() != direct.Instructions() {
		t.Fatalf("incremental checkpoint at %d instructions, direct at %d",
			incremental.Instructions(), direct.Instructions())
	}

	golden := Run(prog, spec)
	warm := spec
	warm.From = incremental
	outcomesIdentical(t, "resume from incremental checkpoint", Run(prog, warm), golden)
}

func TestCaptureCheckpointRejectsBadBoundaries(t *testing.T) {
	prog := Program(AlgorithmI)
	spec := shortSpec()
	if _, err := CaptureCheckpoint(prog, spec, 0); err == nil {
		t.Error("capture at iteration 0 should fail")
	}
	if _, err := CaptureCheckpoint(prog, spec, spec.Iterations); err == nil {
		t.Error("capture at the run length should fail")
	}
}

func TestGoldenEarlyExitByteIdentical(t *testing.T) {
	prog := Program(AlgorithmI)
	spec := shortSpec()
	goldenSpec := spec
	goldenSpec.RecordStateHashes = true
	golden := Run(prog, goldenSpec)
	if len(golden.StateHashes) != spec.Iterations {
		t.Fatalf("%d state hashes, want %d", len(golden.StateHashes), spec.Iterations)
	}

	reconverged := 0
	for _, k := range []int{0, 1, 30, 60, 110} {
		for _, inj := range injections(golden, k) {
			inj := inj
			full := spec
			full.Injection = &inj
			want := Run(prog, full)

			fast := full
			fast.Golden = golden
			got := Run(prog, fast)
			outcomesIdentical(t, inj.Bit.String(), got, want)
			if got.ReconvergedAt != 0 {
				reconverged++
				if got.ReconvergedAt <= k {
					t.Errorf("%s: reconverged at %d, before injection iteration %d",
						inj.Bit, got.ReconvergedAt, k)
				}
			}
		}
	}
	// The sample includes masked faults (dead registers, clean cache
	// metadata), so the early exit must actually fire for some of them.
	if reconverged == 0 {
		t.Error("no run took the early exit; the fast path is dead code")
	}
}

func TestGoldenEarlyExitWithCheckpointResume(t *testing.T) {
	prog := Program(AlgorithmII)
	spec := shortSpec()
	goldenSpec := spec
	goldenSpec.RecordStateHashes = true
	golden := Run(prog, goldenSpec)

	k := 45
	ck, err := CaptureCheckpoint(prog, spec, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, inj := range injections(golden, k) {
		inj := inj
		full := spec
		full.Injection = &inj
		want := Run(prog, full)

		fast := full
		fast.From = ck
		fast.Golden = golden
		outcomesIdentical(t, inj.Bit.String(), Run(prog, fast), want)
	}
}

func TestRecordStateHashesDisablesResume(t *testing.T) {
	prog := Program(AlgorithmI)
	spec := shortSpec()
	ck, err := CaptureCheckpoint(prog, spec, 40)
	if err != nil {
		t.Fatal(err)
	}
	goldenSpec := spec
	goldenSpec.RecordStateHashes = true
	want := Run(prog, goldenSpec)

	goldenSpec.From = ck
	got := Run(prog, goldenSpec)
	if len(got.StateHashes) != spec.Iterations {
		t.Fatalf("%d state hashes, want %d (resume must be ignored)",
			len(got.StateHashes), spec.Iterations)
	}
	for i := range want.StateHashes {
		if got.StateHashes[i] != want.StateHashes[i] {
			t.Fatalf("StateHashes[%d] differs", i)
		}
	}
}

// probeMonitor latches register reg as it stands before instruction at
// and traps at the end of iteration trapAt unless the latched value is
// want: a verdict that depends on state seen long before it fires, and
// that a monitor restarted mid-run would get wrong.
type probeMonitor struct {
	at     uint64
	reg    int
	want   uint32
	trapAt int
	seen   uint32
}

func (m *probeMonitor) OnInstr(_ int, instr uint64, vm *cpu.CPU) *cpu.TrapError {
	if instr == m.at {
		m.seen = vm.Regs[m.reg]
	}
	return nil
}

func (m *probeMonitor) OnIteration(k int, _ *cpu.CPU) *cpu.TrapError {
	if k == m.trapAt && m.seen != m.want {
		return &cpu.TrapError{Mech: cpu.MechConstraint, Info: "probe"}
	}
	return nil
}

func (m *probeMonitor) Clone() Monitor { c := *m; return &c }
func (m *probeMonitor) Digest() uint64 { return uint64(m.seen) }

// probeValue returns register reg's fault-free value before instruction
// at.
func probeValue(prog *cpu.Program, spec RunSpec, at uint64, reg int) uint32 {
	p := &probeMonitor{at: at, reg: reg, trapAt: -1}
	spec.Monitor = p
	Run(prog, spec)
	return p.seen
}

// nonZeroReg returns the first register that holds a non-zero value
// before instruction at of the fault-free run.
func nonZeroReg(t *testing.T, prog *cpu.Program, spec RunSpec, at uint64) int {
	t.Helper()
	for reg := 1; reg < 16; reg++ {
		if probeValue(prog, spec, at, reg) != 0 {
			return reg
		}
	}
	t.Fatal("every register is zero at the probe point")
	return 0
}

// TestMonitoredResumeByteIdentical pins that a monitored run resumed
// from a monitored checkpoint continues with the monitor's state at the
// checkpoint: the probe latches a non-zero register before the
// checkpoint and traps after it, so a resume with a fresh monitor
// (seen = 0 = want) would not trap.
func TestMonitoredResumeByteIdentical(t *testing.T) {
	prog := Program(AlgorithmI)
	spec := shortSpec()
	golden := Run(prog, spec)
	at := golden.IterationStarts[10] + 3
	reg := nonZeroReg(t, prog, spec, at)
	probe := func() Monitor { return &probeMonitor{at: at, reg: reg, trapAt: 70} }

	monitored := spec
	monitored.Monitor = probe()
	want := Run(prog, monitored)
	if want.Trap == nil || want.TrapIteration != 70 {
		t.Fatalf("full monitored run: trap %v at %d, want the probe at 70", want.Trap, want.TrapIteration)
	}

	capSpec := spec
	capSpec.Monitor = probe()
	ck, err := CaptureCheckpoint(prog, capSpec, 40)
	if err != nil {
		t.Fatal(err)
	}
	fast := spec
	fast.From = ck
	fast.Monitor = probe()
	got := Run(prog, fast)
	outcomesIdentical(t, "monitored resume", got, want)
	if got.Trap == nil || got.Trap.Info != "probe" {
		t.Errorf("monitored resume: trap %v, want the probe", got.Trap)
	}

	// Injected resumes reproduce injected full monitored runs.
	for _, inj := range injections(golden, 40) {
		inj := inj
		full := monitored
		full.Monitor = probe()
		full.Injection = &inj
		wantInj := Run(prog, full)

		warm := fast
		warm.Monitor = probe()
		warm.Injection = &inj
		outcomesIdentical(t, "monitored "+inj.Bit.String(), Run(prog, warm), wantInj)
	}
}

// TestUnmonitoredCheckpointIgnoredByMonitoredRun pins that a checkpoint
// captured without a monitor carries no monitor state, so a monitored
// run does a full replay instead of resuming with a fresh monitor.
func TestUnmonitoredCheckpointIgnoredByMonitoredRun(t *testing.T) {
	prog := Program(AlgorithmI)
	spec := shortSpec()
	golden := Run(prog, spec)
	at := golden.IterationStarts[10] + 3
	reg := nonZeroReg(t, prog, spec, at)
	monitored := spec
	monitored.Monitor = &probeMonitor{at: at, reg: reg, trapAt: 70}
	want := Run(prog, monitored)

	ck, err := CaptureCheckpoint(prog, spec, 40)
	if err != nil {
		t.Fatal(err)
	}
	fast := spec
	fast.From = ck
	fast.Monitor = &probeMonitor{at: at, reg: reg, trapAt: 70}
	outcomesIdentical(t, "unmonitored checkpoint", Run(prog, fast), want)
}

// TestMonitoredGoldenEarlyExitNeedsEqualMonitorState pins that golden
// reconvergence compares the monitor's state along with the machine's:
// a transient register glitch the machine shrugs off still leaves the
// probe holding a value the golden probe never saw, so the run must not
// splice the trap-free golden remainder.
func TestMonitoredGoldenEarlyExitNeedsEqualMonitorState(t *testing.T) {
	prog := Program(AlgorithmI)
	spec := shortSpec()
	hashed := spec
	hashed.RecordStateHashes = true
	plainGolden := Run(prog, hashed)
	at := plainGolden.IterationStarts[30] + 5

	// Find a register whose transient glitch at the probe point the
	// machine masks: the unmonitored run reconverges with its golden run.
	var inj Injection
	reg := 1
	for ; reg < 16; reg++ {
		inj = Injection{At: at, Model: ModelTransient,
			Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: fmt.Sprintf("r%d", reg), Bit: 0}}
		run := spec
		run.Injection = &inj
		run.Golden = plainGolden
		if Run(prog, run).ReconvergedAt != 0 {
			break
		}
	}
	if reg == 16 {
		t.Fatal("no register glitch at the probe point reconverges")
	}
	g := probeValue(prog, spec, at, reg)
	probe := func() Monitor { return &probeMonitor{at: at, reg: reg, want: g, trapAt: 100} }

	goldenSpec := hashed
	goldenSpec.Monitor = probe()
	golden := Run(prog, goldenSpec)
	if golden.Trap != nil {
		t.Fatalf("monitored golden run trapped: %v", golden.Trap)
	}

	full := spec
	full.Injection = &inj
	full.Monitor = probe()
	want := Run(prog, full)
	if want.Trap == nil || want.TrapIteration != 100 {
		t.Fatalf("full monitored run: trap %v at %d, want the probe at 100", want.Trap, want.TrapIteration)
	}

	fast := full
	fast.Monitor = probe()
	fast.Golden = golden
	got := Run(prog, fast)
	outcomesIdentical(t, "monitored golden", got, want)
	if got.ReconvergedAt != 0 {
		t.Errorf("spliced at %d although the monitor state differs from the golden run's", got.ReconvergedAt)
	}

	// A golden run recorded without the monitor is no reference for a
	// monitored run.
	fast.Monitor = probe()
	fast.Golden = plainGolden
	outcomesIdentical(t, "unmonitored golden", Run(prog, fast), want)
}
