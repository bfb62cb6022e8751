package main

import (
	"math"
	"syscall"
	"time"
)

// The sandbox is a 2-vCPU share of a busy host. Two things move a round's
// wall time there by tens of percent, for minutes at a time, whatever the
// simulator does: the hypervisor takes the vCPUs away (steal: a quarter of
// wall time in a bad phase), and the core itself runs slower in phases
// (busy sibling hyperthreads, probably). No statistic inside a run removes
// either. So host times are taken on the process's own CPU clock, which
// stops while a vCPU is stolen, and are reported at a nominal host speed:
// after every timed round, outside its timed interval, the harness times a
// fixed reference loop of its own on the same clock and scales the round
// by a power of calibNominal ÷ that time (atNominal). The pass runs on one
// processor (GOMAXPROCS 1, one host simulation thread), so CPU time is the
// wall time the process would see on a host of its own. README.md has the
// evidence; the raw values stay available as layer metrics.
//
// The loop has the two shapes the simulator shows the host: a small
// bytecode interpreter (switch dispatch, a register file, scattered loads
// and stores) and warp-lane float loops over register-file-sized arrays.
// Of the loops tried — those two, a dependent random-access chain,
// independent integer chains, a 32 MiB stream — this pair followed the
// host's drift best.

// calibNominal is the reference loop's median CPU time on the sandbox in a
// quiet phase; it only fixes the scale of the reported milliseconds.
const calibNominal = 2000 * time.Microsecond

// calibExponent is how much more the simulator feels the host's drift than
// the reference loop does. Measured, not explained (the VM has no PMU):
// over 50 passes per workload the slope of log round time against log
// reference time was 2.1, 2.3, 2.2 (the three fork workloads), 1.7 (serve)
// and 1.3 (cold-start), each ± 0.1, and much the same in three later sweeps
// (README.md). One exponent serves all five.
const calibExponent = 2

// calibPause lets what a round left running in the background finish (on
// serve, the pool's refill forks) before the reference loop is timed.
const calibPause = 2 * time.Millisecond

const (
	calibSteps   = 100_000 // interpreted instructions
	calibSweeps  = 6_000   // lane-loop iterations
	calibMemMask = 128<<10 - 1
)

var (
	calibProg = func() [4096]uint32 {
		var p [4096]uint32
		x := uint32(88172645)
		for i := range p {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			p[i] = x
		}
		return p
	}()
	calibMem   [calibMemMask + 1]uint32
	calibLanes [8][32]float32
	calibSink  float32
)

// cpuTime is the CPU time the process has used since it started, all
// threads, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only fails on a bad argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibSpent is the CPU time calibrate has used so far, pause included.
var calibSpent time.Duration

// calibrate runs the reference loop once and returns the CPU time it took.
func calibrate() time.Duration {
	start := cpuTime()
	time.Sleep(calibPause)
	t0 := cpuTime()
	calibSink = float32(interpret(&calibMem)) + sweepLanes(&calibLanes)
	t1 := cpuTime()
	calibSpent += t1 - start
	return t1 - t0
}

// atNominal scales a CPU time to nominal host speed, given the reference
// loop's CPU time measured next to it; 0 without a reference time.
func atNominal(cpuNS, calibNS float64) float64 {
	if calibNS <= 0 {
		return 0
	}
	return cpuNS * math.Pow(float64(calibNominal)/calibNS, calibExponent)
}

// sweepLanes runs calibSweeps fused multiply-adds and a compare over 32
// lanes of three of eight registers, the warp engine's inner-loop shape.
func sweepLanes(regs *[8][32]float32) float32 {
	for i := range regs {
		for l := range regs[i] {
			regs[i][l] = float32(i*32+l) * 0.001
		}
	}
	for it := 0; it < calibSweeps; it++ {
		d, a, b := &regs[it&7], &regs[(it+3)&7], &regs[(it+5)&7]
		for l := range d {
			d[l] = a[l]*b[l] + d[l]*0.5
		}
		for l := range d {
			if d[l] > 4 {
				d[l] -= 4
			}
		}
	}
	return regs[0][0] + regs[3][7]
}

// interpret executes calibSteps instructions of the fixed random program.
func interpret(mem *[calibMemMask + 1]uint32) uint32 {
	var r [16]uint32
	pc := 0
	for i := 0; i < calibSteps; i++ {
		in := calibProg[pc&4095]
		pc++
		a, b, c, imm := (in>>5)&15, (in>>9)&15, (in>>13)&15, in>>17
		switch in & 15 {
		case 0:
			r[a] = r[b] + r[c]
		case 1:
			r[a] = r[b] - r[c]
		case 2:
			r[a] = r[b] * r[c]
		case 3:
			r[a] = r[b] ^ r[c]
		case 4:
			r[a] = r[b] << (r[c] & 31)
		case 5:
			r[a] = r[b] >> (r[c] & 31)
		case 6:
			r[a] = mem[(r[b]+imm)&calibMemMask]
		case 7:
			mem[(r[b]+imm)&calibMemMask] = r[a]
		case 8:
			if r[a] > r[b] {
				pc += int(c)
			}
		case 9:
			r[a] = imm
		case 10:
			r[a] = r[b] + imm
		case 11:
			if r[a]&1 == 0 {
				pc += int(b)
			}
		case 12:
			mem[r[c]&calibMemMask] += r[a]
		case 13:
			r[a] = r[b] / (r[c] | 1)
		case 14:
			r[a] = (r[b] << 7) | (r[b] >> 25)
		default:
			r[a] = mem[imm&calibMemMask] ^ r[b]
		}
	}
	return r[0] + r[7]
}
