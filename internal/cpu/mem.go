package cpu

// Memory map of the target system. Code is execute-only (data accesses
// trap), data is cached read/write, the I/O window is uncached and
// host-mapped, and the stack segment is guarded by the storage check.
const (
	CodeBase  uint32 = 0x0000
	CodeSize  uint32 = 0x1000
	DataBase  uint32 = 0x1000
	DataSize  uint32 = 0x1000
	IOBase    uint32 = 0x2000
	IOSize    uint32 = 0x0100
	StackBase uint32 = 0x3000
	StackSize uint32 = 0x1000

	// MemSize is the total backing-store size.
	MemSize uint32 = 0x4000

	// NullGuard: accesses below this address raise ACCESS CHECK
	// (null-pointer dereference).
	NullGuard uint32 = 4
)

// Segment classifies an address.
type Segment int

// Segment values.
const (
	SegNone Segment = iota
	SegCode
	SegData
	SegIO
	SegStack
)

// SegmentOf returns the segment containing addr, or SegNone.
func SegmentOf(addr uint32) Segment {
	switch {
	case addr < CodeBase+CodeSize:
		return SegCode
	case addr >= DataBase && addr < DataBase+DataSize:
		return SegData
	case addr >= IOBase && addr < IOBase+IOSize:
		return SegIO
	case addr >= StackBase && addr < StackBase+StackSize:
		return SegStack
	default:
		return SegNone
	}
}

// Memory is the flat backing store behind the cache. It is not a fault
// injection target: like Thor's parity-protected main memory, it is
// assumed error-free (faults live in the CPU's cache and registers).
type Memory struct {
	words [MemSize / 4]uint32

	// sum is the running memory digest StateDigest folds in: per lane,
	// the XOR over every non-zero word of a bijective 64-bit mix of
	// (word index, value). WriteWord keeps it current in O(1), so the
	// digest costs the same whatever the memory size.
	sum Digest
}

// NewMemory returns zeroed memory.
func NewMemory() *Memory {
	return &Memory{}
}

// ReadWord returns the aligned word at addr. The caller must have
// validated the address.
func (m *Memory) ReadWord(addr uint32) uint32 {
	return m.words[addr/4]
}

// WriteWord stores an aligned word at addr. The caller must have
// validated the address.
func (m *Memory) WriteWord(addr uint32, v uint32) {
	i := addr / 4
	old := m.words[i]
	if old == v {
		return
	}
	m.words[i] = v
	m.sum.toggle(i, old)
	m.sum.toggle(i, v)
}

// Snapshot copies the memory contents for end-of-run state comparison.
func (m *Memory) Snapshot() []uint32 {
	out := make([]uint32, len(m.words))
	copy(out, m.words[:])
	return out
}

// load overwrites the contents with words and recomputes the running
// digest from scratch.
func (m *Memory) load(words []uint32) {
	copy(m.words[:], words)
	m.sum = memorySum(&m.words)
}

// memorySum computes the running memory digest from scratch.
func memorySum(words *[MemSize / 4]uint32) Digest {
	var d Digest
	for i, v := range words {
		d.toggle(uint32(i), v)
	}
	return d
}

// toggle XORs the (index, value) term of one memory word into d. Zero
// words contribute nothing, so zeroed memory has the zero sum. Each
// lane's mix is a bijection of the 64-bit key index<<32|value that maps
// only 0 to 0, so a non-zero word always has a non-zero term and
// changing one word always changes both lanes.
func (d *Digest) toggle(i, v uint32) {
	if v == 0 {
		return
	}
	x := uint64(i)<<32 | uint64(v)
	d[0] ^= fmix64(x)
	d[1] ^= splitmix64(x * digestOffset2)
}

// fmix64 is MurmurHash3's 64-bit finalizer.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// splitmix64 is the SplitMix64 output function (without the counter
// increment, so it keeps 0 fixed).
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
