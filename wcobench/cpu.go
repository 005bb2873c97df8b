package main

import (
	"math/bits"
	"syscall"
	"time"
	"unsafe"
)

// The reference host is a KVM guest whose vCPUs are shared with other
// guests; the time the hypervisor takes away ("steal") varies from 0 to
// over 20% between runs and inflates every wall-clock timing. Linux
// charges steal to no task (CONFIG_PARAVIRT_TIME_ACCOUNTING), so CPU-time
// clocks measure the program's work without it.

const (
	clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTimeID  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// processCPU reads the CPU time of every thread of the process, the
// runtime's GC workers included, in nanoseconds.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTimeID) }

// threadCPU reads the calling OS thread's CPU clock; the caller must hold
// runtime.LockOSThread. It times the load generator's own verification
// work, which the serving workloads subtract from the process's CPU.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTimeID) }

// The host's pace also changes without any steal: within a minute the
// same queries' CPU time moved by up to 50% on the reference host, as
// neighbours came and went on the shared cores and caches. A fixed probe
// of the benchmark's own code, run on the workload's threads between its
// operations, measures that pace. query_cpu_ms and setup_s are the raw
// CPU times scaled by paceRef ÷ the mean probe time around them, i.e.
// expressed at the reference pace; the raw figures and the pace are in
// the report line. The probe is random popcounts over a 256 KiB table,
// the same kind of work as a wavelet rank. The table is read once before
// the timed part, so the probe runs from a warm cache whatever the
// program left in it: a change to the program's memory footprint does
// not move the pace.

const (
	paceSteps = 25000                  // popcounts per probe
	paceRef   = 250 * time.Microsecond // about the probe's median time on the reference host
)

var paceTable = func() []uint64 {
	t := make([]uint64, 1<<15)
	for i := range t {
		t[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return t
}()

// pacer accumulates the probes run on one or more threads.
type pacer struct {
	cpu    time.Duration
	probes int
	sink   int // keeps the probe's result live
}

// probe runs the fixed probe and adds its thread CPU time; the caller must
// hold runtime.LockOSThread.
func (p *pacer) probe() {
	var w uint64
	for _, x := range paceTable {
		w += x
	}
	c0 := threadCPU()
	s, j, n := int(w&1), p.sink, len(paceTable)-1
	for i := 0; i < paceSteps; i++ {
		j = (j*5 + 1 + s) & n
		s += bits.OnesCount64(paceTable[j]) + bits.OnesCount64(paceTable[(j+1)&n])
	}
	p.sink += s & 1
	p.cpu += threadCPU() - c0
	p.probes++
}

func (p *pacer) add(q pacer) {
	p.cpu += q.cpu
	p.probes += q.probes
}

// scale converts a CPU time m measured at this run's pace to the
// reference pace; m unscaled becomes <name>.raw, and the pace
// <name>.pace_ms.
func (p *pacer) scale(m metric) []metric {
	pace := ratio(ms(p.cpu), float64(p.probes))
	raw := m
	raw.name += ".raw"
	f := ratio(ms(paceRef), pace)
	m.value, m.p25, m.median, m.p75 = m.value*f, m.p25*f, m.median*f, m.p75*f
	return []metric{m, raw, scalar(m.name+".pace_ms", "ms", pace)}
}
