package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on shares its physical cores, caches and
// memory bandwidth with other machines, and its speed drifts by up to a
// factor of two over minutes: one fixed campaign took 363 ms in one
// minute and 708 ms a few minutes later. No statistic inside a 25 s run
// removes a drift that long, so every timed operation is scaled to a
// reference host speed by a fixed probe run right beside it.
//
// The probe is the benchmark's own code, never the program's, so no
// change to the program can move it: an integer hash loop, two random
// read walks over 1 MiB and 4 MiB, and a toy bytecode
// interpreter whose switch dispatch and data-dependent branches load
// the branch predictor the way the program's interpreter does. It runs
// on as many goroutines as the campaigns have workers. Its memory is
// mapped outside the Go heap, so it neither moves the program's GC
// pacing nor is scanned; it adds a constant 5 MiB to max_rss_mb.

const (
	probeHashIters  = 1_000_000
	probeSmallWords = 1 << 17 // 1 MiB
	probeSmallIters = 180_000
	probeLargeWords = 1 << 19 // 4 MiB
	probeLargeIters = 150_000
	probeVMSteps    = 4_000_000
	probeVMCode     = 4096 // bytes of toy bytecode

	// probeRef is the probe's time at the reference speed: its median
	// on the 2-vCPU VM the benchmark was tuned on. Scaled times read as
	// that host would have produced them at that speed.
	probeRef = 60 * time.Millisecond
)

// speedProbe measures the host's current speed.
type speedProbe struct {
	par   int
	small []uint64
	large []uint64
	mem   []byte // the mapping behind small and large
	code  []byte // toy bytecode for vmRun
	sink  []uint64
}

func newSpeedProbe(par int) (*speedProbe, error) {
	n := (probeSmallWords + probeLargeWords) * 8
	mem, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("speed probe: %w", err)
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), probeSmallWords+probeLargeWords)
	for i := range words {
		words[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	p := &speedProbe{par: max(par, 1), small: words[:probeSmallWords], large: words[probeSmallWords:], mem: mem}
	p.sink = make([]uint64, p.par)
	p.code = make([]byte, probeVMCode)
	x := uint64(7)
	for i := range p.code {
		x = mix(x)
		p.code[i] = byte(x % 12)
	}
	return p, nil
}

func (p *speedProbe) close() { syscall.Munmap(p.mem) }

// probeSample is one run of the probe: its wall time, the process CPU
// time it took, and how many goroutines ran it.
type probeSample struct {
	wall, cpu time.Duration
	par       int
}

// sample runs the probe once on as many goroutines as the campaigns
// have workers, all at once.
func (p *speedProbe) sample() probeSample {
	cpu0 := cpuSeconds()
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < p.par; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := mix(uint64(g))
			for i := 0; i < probeHashIters; i++ {
				x = mix(x)
			}
			x = walk(p.small, probeSmallIters, x)
			x = walk(p.large, probeLargeIters, x)
			x = vmRun(p.code, probeVMSteps, x)
			p.sink[g] = x
		}(g)
	}
	wg.Wait()
	return probeSample{wall: time.Since(start), cpu: secs(cpuSeconds() - cpu0), par: p.par}
}

// walk does iters pairs of dependent random reads over words. It only
// reads, so the goroutines of one sample can share words.
func walk(words []uint64, iters int, x uint64) uint64 {
	n := uint64(len(words))
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := (x >> 20) % n
		x ^= words[j] + words[(j*7)%n]
	}
	return x
}

// vmRun interprets steps instructions of code, a register machine
// with twelve opcodes, three of them data-dependent jumps.
func vmRun(code []byte, steps int, x uint64) uint64 {
	r := [4]uint64{x, 2, 3, 4}
	var mem [64]uint64
	pc := 0
	for s := 0; s < steps; s++ {
		op := code[pc]
		pc++
		switch op {
		case 0:
			r[0] += r[1]
		case 1:
			r[1] ^= r[2] << 3
		case 2:
			r[2] = r[2]*31 + r[3]
		case 3:
			r[3] -= r[0]
		case 4:
			mem[r[0]&63] = r[1]
		case 5:
			r[2] += mem[r[3]&63]
		case 6:
			if r[0]&1 == 0 {
				pc += int(r[1] & 7)
			}
		case 7:
			if r[2]&2 != 0 {
				pc -= int(r[3] & 3)
			}
		case 8:
			r[0], r[1] = r[1], r[0]
		case 9:
			r[3] = r[3]>>1 | r[3]<<63
		case 10:
			r[1] += 10 * r[2]
		case 11:
			if r[1] > r[3] {
				r[1] -= r[3]
			}
		}
		if pc < 0 || pc >= len(code) {
			pc = int(r[0] & 1023)
		}
	}
	return r[0] ^ r[1] ^ r[2] ^ r[3] ^ mem[5]
}

// wallFactor converts a wall time measured between probe samples into
// the reference speed: multiply the time by it. It is the reference
// over the samples' median wall time, so samples slower than the
// reference give a factor below 1.
func wallFactor(samples ...probeSample) float64 {
	var ts []float64
	for _, s := range samples {
		ts = append(ts, s.wall.Seconds())
	}
	return probeRef.Seconds() / median(ts)
}

// cpuFactor is wallFactor for CPU time. CPU time does not grow while
// the hypervisor runs another machine on our CPUs, and wall time does,
// so each is scaled by the probe's own time of the same kind.
func cpuFactor(samples ...probeSample) float64 {
	var ts []float64
	for _, s := range samples {
		ts = append(ts, s.cpu.Seconds()/float64(s.par))
	}
	return probeRef.Seconds() / median(ts)
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
