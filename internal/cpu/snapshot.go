package cpu

import "math/bits"

// Full-machine checkpointing. A Snapshot captures every bit of state
// that influences future execution — registers, PC, flags, the
// control-flow-checking latch, the halt latch, the instruction counter,
// the complete data cache (tags, status bits, data, hit/miss counters)
// and the memory backing store. Restoring a snapshot and stepping is
// byte-for-byte indistinguishable from having executed the original
// prefix, which is what lets the campaign engine resume fault-injection
// experiments from a cached pre-injection checkpoint instead of
// replaying the golden prefix (FERRARI-style pre-injection
// snapshotting).

// LineSnapshot is the saved state of one cache line.
type LineSnapshot struct {
	Tag   uint16
	Valid bool
	Dirty bool
	Data  [cacheWords]uint32
}

// CacheSnapshot is the saved state of the data cache, including the
// diagnostic hit/miss counters so a resumed run reports the same
// statistics as a full replay.
type CacheSnapshot struct {
	Lines  [CacheLines]LineSnapshot
	Hits   uint64
	Misses uint64
}

// Snapshot is a complete, self-contained copy of the machine state.
// It shares no storage with the CPU it was taken from, so one snapshot
// can seed many concurrent resumed runs.
type Snapshot struct {
	Regs   [16]uint32
	PC     uint32
	FlagZ  bool
	FlagLT bool

	// InstrCount is the dynamic instruction count at the snapshot
	// point — the campaign's fault-injection time base continues from
	// here on resume.
	InstrCount uint64

	// LastJump and Halted preserve the control-flow-checking latch and
	// the halt latch (the trap-relevant machine state outside the
	// architectural registers).
	LastJump bool
	Halted   bool

	Mem   []uint32 // MemSize/4 words
	Cache CacheSnapshot
}

// Snapshot captures the full machine state.
func (c *CPU) Snapshot() *Snapshot {
	s := &Snapshot{
		Regs:       c.Regs,
		PC:         c.PC,
		FlagZ:      c.FlagZ,
		FlagLT:     c.FlagLT,
		InstrCount: c.instrCount,
		LastJump:   c.lastJump,
		Halted:     c.halted,
		Mem:        c.Mem.Snapshot(),
	}
	s.Cache.Hits = c.Cache.Hits
	s.Cache.Misses = c.Cache.Misses
	for i := range c.Cache.lines {
		line := &c.Cache.lines[i]
		s.Cache.Lines[i] = LineSnapshot{
			Tag:   line.tag,
			Valid: line.valid,
			Dirty: line.dirty,
			Data:  line.data,
		}
	}
	return s
}

// Restore overwrites the CPU's state with the snapshot's. The CPU keeps
// its IOBus; the snapshot is not aliased and may be restored again.
func (c *CPU) Restore(s *Snapshot) {
	c.Regs = s.Regs
	c.PC = s.PC
	c.FlagZ = s.FlagZ
	c.FlagLT = s.FlagLT
	c.instrCount = s.InstrCount
	c.lastJump = s.LastJump
	c.halted = s.Halted
	c.Mem.load(s.Mem)
	c.Cache.Hits = s.Cache.Hits
	c.Cache.Misses = s.Cache.Misses
	for i := range c.Cache.lines {
		ls := &s.Cache.Lines[i]
		c.Cache.lines[i] = cacheLine{
			tag:   ls.Tag,
			valid: ls.Valid,
			dirty: ls.Dirty,
			data:  ls.Data,
		}
	}
}

// NewFromSnapshot builds a fresh CPU positioned at the snapshot, bound
// to the given I/O bus.
func NewFromSnapshot(s *Snapshot, io IOBus) *CPU {
	c := &CPU{
		Mem:   NewMemory(),
		Cache: NewCache(),
		IO:    io,
	}
	c.Restore(s)
	return c
}

// Digest is a 128-bit signature of the complete behavioural machine
// state (everything a Snapshot captures except the diagnostic hit/miss
// counters). Two machines with equal digests at an iteration boundary
// evolve identically from there given identical inputs; the campaign
// engine uses this to cut a faulty run short once its state re-converges
// with the golden run's. 128 bits keep the collision probability
// negligible even across billions of comparisons.
type Digest [2]uint64

const (
	digestOffset2 = 0x9E3779B97F4A7C15
	digestPrime2  = 0xFF51AFD7ED558CCD
)

// StateDigest hashes the full behavioural state: registers, PC, flags,
// the control-flow and halt latches, the instruction counter, the cache
// (tags, status bits, data) and the whole memory backing store. Memory
// enters through its running sum (see Memory.sum), so the cost is that
// of the ~60 register and cache words, not of the 4096 memory words.
// The digest is an in-process comparison key only: its value may change
// between versions.
func (c *CPU) StateDigest() Digest {
	h1 := c.Mem.sum[0] ^ fnvOffset
	h2 := c.Mem.sum[1] ^ digestOffset2
	// Each step is a bijection of the running lane, so two states that
	// differ in exactly one word always digest differently.
	mix := func(v uint32) {
		h1 = bits.RotateLeft64((h1^uint64(v))*fnvPrime, 31)
		h2 = bits.RotateLeft64((h2^uint64(v))*digestPrime2, 27)
	}
	for r := 1; r < 16; r++ {
		mix(c.Regs[r])
	}
	mix(c.PC)
	mix(boolWord(c.FlagZ)<<3 | boolWord(c.FlagLT)<<2 | boolWord(c.lastJump)<<1 | boolWord(c.halted))
	mix(uint32(c.instrCount))
	mix(uint32(c.instrCount >> 32))
	for i := range c.Cache.lines {
		line := &c.Cache.lines[i]
		mix(uint32(line.tag)<<2 | boolWord(line.valid)<<1 | boolWord(line.dirty))
		for _, w := range line.data {
			mix(w)
		}
	}
	return Digest{fmix64(h1), splitmix64(h2)}
}
