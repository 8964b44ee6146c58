package main

import (
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts: other tenants' load moves the clock and the
// share of the core this VM's vCPU gets, and on the 2-vCPU VM the benchmark
// was tuned on the CPU time of the same work moved by 2x between hours and
// by up to 40% between runs minutes apart. An untraced run therefore times
// a fixed calibration kernel after every op and scales each op's CPU time
// by the kernel's nominal over its measured CPU time, which gives the CPU
// time per run the op would have taken at the calibration speed
// (norm_cpu_s_per_run). The kernel is the benchmark's own code, so a change
// to the simulator moves the op's CPU time but not the kernel's.

// refNominal is the kernel's CPU time at the calibration speed: its median
// on the 2-vCPU Xeon VM (2.1 GHz) the benchmark was tuned on, at a time when
// the same VM ran the workloads at their fastest.
const refNominal = 3090 * time.Microsecond

// refSteps is the kernel's fixed work, in heap operations.
const refSteps = 30000

// refTableLen is the kernel's lookup table: 256 KiB of uint32, which the
// core's own caches hold, so the kernel tracks the core's speed. A table
// larger than L2 made the kernel's time depend on where its pages landed
// (±4% between processes, against ±0.4% at this size).
const refTableLen = 1 << 16

// refHeapCap is the kernel's event heap size before every push pops.
const refHeapCap = 512

type refEvent struct {
	t  float64
	id uint32
}

// refKernel is the calibration work, shaped like the simulator's hot
// loop and allocation-free: a binary min-heap of timed events, a random
// read of a lookup table per event, and the d^-alpha float math of
// a path-loss gain. Clients share the read-only table; each times the
// kernel through its own refClient. The kernel takes about 3 ms, a few
// percent of an op.
type refKernel struct {
	table []uint32
}

// refTableBytes is the table's size. The table lives outside the Go heap,
// so it does not move the program's garbage-collection pacing, and
// peak_rss_mb leaves it out.
const refTableBytes = refTableLen * 4

func newRefKernel() (*refKernel, error) {
	mem, err := syscall.Mmap(-1, 0, refTableBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	k := &refKernel{table: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refTableLen)}
	x := uint64(0x2545f4914f6cdd1d)
	for i := range k.table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.table[i] = uint32(x)
	}
	return k, nil
}

// run does the kernel's fixed work once in heap h and returns h and a
// value that depends on all of the work.
func (k *refKernel) run(h []refEvent) ([]refEvent, float64) {
	h = h[:0]
	x := uint64(0x9e3779b97f4a7c15)
	now, acc := 0.0, 0.0
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := k.table[x&(refTableLen-1)]
		d := 1 + float64(v&1023)
		g := math.Pow(d, -3.5)
		acc += g
		if v&7 == 0 {
			acc = math.Sqrt(acc)
		}
		// Push an event, then pop the earliest once the heap is full.
		h = append(h, refEvent{t: now + float64(v>>10)*0x1p-22 + g, id: v})
		for c := len(h) - 1; c > 0; {
			p := (c - 1) / 2
			if h[p].t <= h[c].t {
				break
			}
			h[p], h[c] = h[c], h[p]
			c = p
		}
		if len(h) > refHeapCap {
			now = h[0].t
			acc += float64(h[0].id & 15)
			n := len(h) - 1
			h[0] = h[n]
			h = h[:n]
			for p := 0; ; {
				c := 2*p + 1
				if c >= n {
					break
				}
				if c+1 < n && h[c+1].t < h[c].t {
					c++
				}
				if h[p].t <= h[c].t {
					break
				}
				h[p], h[c] = h[c], h[p]
				p = c
			}
		}
	}
	return h, acc + now
}

// refClient is one client goroutine's use of the kernel.
type refClient struct {
	k    *refKernel
	heap []refEvent
	// sink keeps the kernel's result live.
	sink float64
}

func (k *refKernel) client() *refClient {
	return &refClient{k: k, heap: make([]refEvent, 0, refHeapCap+1)}
}

// measure runs the kernel once on a locked OS thread and returns that
// thread's CPU time for it, which other goroutines' work does not enter.
func (c *refClient) measure() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	var v float64
	c.heap, v = c.k.run(c.heap)
	c.sink += v
	return threadCPU() - t0
}

// median runs the kernel n times and returns the median of its CPU times.
func (c *refClient) median(n int) time.Duration {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(c.measure())
	}
	return time.Duration(median(xs))
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID, which package
// syscall does not name. Unlike getrusage(RUSAGE_THREAD), which splits a
// thread's time at tick resolution, it reads the scheduler's nanosecond
// run time.
const clockThreadCPUTime = 3

// threadCPU is the calling OS thread's CPU time; the caller locks the
// goroutine to its thread around the readings it compares.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
