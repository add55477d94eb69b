package cpu

import (
	"math/rand"
	"testing"
)

// snapSrc exercises registers, flags, cached data memory and the stack,
// looping so the machine has non-trivial state at any prefix length.
const snapSrc = `
.data
v:      .word 0
w:      .word 7
.code
start:  SIG
        MOVI r2, =v
        MOVI r3, 0
        MOVI r4, 100
        ADDI r14, r14, -16
loop:   SIG
        LD r5, 0(r2)
        ADD r5, r5, r3
        ST r5, 0(r2)
        ADDI r3, r3, 1
        ST r3, 0(r14)
        CMP r3, r4
        BLT loop
        HALT
`

func assembleSnap(t *testing.T) *Program {
	t.Helper()
	p, err := Assemble(snapSrc)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

// stepN steps the CPU n times, failing on any trap.
func stepN(t *testing.T, c *CPU, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if c.Halted() {
			return
		}
		if err := c.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func TestSnapshotRestoreResumesIdentically(t *testing.T) {
	p := assembleSnap(t)

	// Reference: run straight through to halt.
	ref := New(p, newStubIO())
	for !ref.Halted() {
		if err := ref.Step(); err != nil {
			t.Fatalf("reference run trapped: %v", err)
		}
	}

	for _, prefix := range []int{0, 1, 17, 100, 333} {
		c := New(p, newStubIO())
		stepN(t, c, prefix)
		snap := c.Snapshot()

		resumed := NewFromSnapshot(snap, newStubIO())
		if got, want := resumed.StateDigest(), c.StateDigest(); got != want {
			t.Fatalf("prefix %d: digest after NewFromSnapshot differs", prefix)
		}
		for !resumed.Halted() {
			if err := resumed.Step(); err != nil {
				t.Fatalf("prefix %d: resumed run trapped: %v", prefix, err)
			}
		}
		if got, want := resumed.StateDigest(), ref.StateDigest(); got != want {
			t.Errorf("prefix %d: final digest differs from straight run", prefix)
		}
		if !StatesEqual(resumed.FinalState(), ref.FinalState()) {
			t.Errorf("prefix %d: FinalState differs from straight run", prefix)
		}
		if resumed.InstrCount() != ref.InstrCount() {
			t.Errorf("prefix %d: instruction count %d, want %d", prefix, resumed.InstrCount(), ref.InstrCount())
		}
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	p := assembleSnap(t)
	c := New(p, newStubIO())
	stepN(t, c, 50)
	snap := c.Snapshot()
	digest := NewFromSnapshot(snap, newStubIO()).StateDigest()

	// Mutating the original machine must not reach the snapshot.
	stepN(t, c, 50)
	c.Regs[5] ^= 0xFFFF
	c.Mem.WriteWord(DataBase, 0xDEADBEEF)
	if err := c.FlipBit(StateBit{RegionCache, "line0.data0", 3}); err != nil {
		t.Fatal(err)
	}

	if got := NewFromSnapshot(snap, newStubIO()).StateDigest(); got != digest {
		t.Error("snapshot changed when the source machine was mutated")
	}
}

func TestRestoreOverwritesExistingMachine(t *testing.T) {
	p := assembleSnap(t)
	c := New(p, newStubIO())
	stepN(t, c, 200)
	snap := c.Snapshot()
	want := c.StateDigest()

	other := New(p, newStubIO())
	stepN(t, other, 37)
	other.Restore(snap)
	if got := other.StateDigest(); got != want {
		t.Error("Restore did not reproduce the source digest")
	}
	if other.Cache.Hits != c.Cache.Hits || other.Cache.Misses != c.Cache.Misses {
		t.Error("Restore did not carry the cache hit/miss counters")
	}
}

func TestStateDigestSensitivity(t *testing.T) {
	p := assembleSnap(t)
	c := New(p, newStubIO())
	stepN(t, c, 120)
	base := c.StateDigest()

	// Every class of state must influence the digest.
	mutations := []struct {
		name string
		mut  func(*CPU)
	}{
		{"register", func(m *CPU) { m.Regs[7] ^= 1 }},
		{"pc", func(m *CPU) { m.PC ^= 4 }},
		{"flag", func(m *CPU) { m.FlagZ = !m.FlagZ }},
		{"instr count", func(m *CPU) { m.instrCount++ }},
		{"last jump", func(m *CPU) { m.lastJump = !m.lastJump }},
		{"halted", func(m *CPU) { m.halted = !m.halted }},
		{"memory", func(m *CPU) { m.Mem.WriteWord(StackBase, m.Mem.ReadWord(StackBase)^1) }},
		{"cache tag", func(m *CPU) { m.Cache.lines[0].tag ^= 1 }},
		{"cache data", func(m *CPU) { m.Cache.lines[0].data[1] ^= 1 }},
		{"cache dirty", func(m *CPU) { m.Cache.lines[0].dirty = !m.Cache.lines[0].dirty }},
	}
	for _, mt := range mutations {
		m := NewFromSnapshot(c.Snapshot(), newStubIO())
		mt.mut(m)
		if m.StateDigest() == base {
			t.Errorf("%s mutation did not change the digest", mt.name)
		}
	}

	// Hit/miss counters are diagnostics, not behaviour.
	m := NewFromSnapshot(c.Snapshot(), newStubIO())
	m.Cache.Hits += 5
	if m.StateDigest() != base {
		t.Error("hit counter changed the behavioural digest")
	}
}

// TestMemorySumIncremental drives random WriteWord / Restore / Clone
// sequences and requires the running memory digest to equal a
// from-scratch recompute after every step.
func TestMemorySumIncremental(t *testing.T) {
	p := assembleSnap(t)
	rng := rand.New(rand.NewSource(41))
	c := New(p, newStubIO())
	check := func(step int, m *CPU) {
		t.Helper()
		if got, want := m.Mem.sum, memorySum(&m.Mem.words); got != want {
			t.Fatalf("step %d: running sum %x, recompute %x", step, got, want)
		}
	}
	check(-1, c)
	var snaps []*Snapshot
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(20); {
		case op < 14:
			// Small value range so writes often restore an old value or zero.
			addr := uint32(rng.Intn(int(MemSize/4))) * 4
			c.Mem.WriteWord(addr, uint32(rng.Intn(4)))
		case op < 16:
			snaps = append(snaps, c.Snapshot())
		case op < 18 && len(snaps) > 0:
			c.Restore(snaps[rng.Intn(len(snaps))])
		default:
			c = c.Clone(newStubIO())
		}
		check(step, c)
	}
}

// TestStateDigestEveryMemoryBit pins that flipping any single bit of
// any memory word changes the state digest, and flipping it back
// restores it.
func TestStateDigestEveryMemoryBit(t *testing.T) {
	p := assembleSnap(t)
	c := New(p, newStubIO())
	stepN(t, c, 120)
	base := c.StateDigest()
	for addr := uint32(0); addr < MemSize; addr += 4 {
		orig := c.Mem.ReadWord(addr)
		for b := 0; b < 32; b++ {
			c.Mem.WriteWord(addr, orig^1<<b)
			if c.StateDigest() == base {
				t.Fatalf("flipping bit %d of word %#x left the digest unchanged", b, addr)
			}
			c.Mem.WriteWord(addr, orig)
		}
	}
	if c.StateDigest() != base {
		t.Fatal("undoing every flip did not restore the digest")
	}
}
