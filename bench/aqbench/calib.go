package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// A vCPU of a shared host is not one speed: measured on the seed host, the
// same server build costs 580-800 ns of CPU per tuple from one minute to
// the next, depending on what the neighbours do to the core and its caches
// (bench/README.md, "Calibrated CPU time"). So while the server is paced,
// a calibrator runs a fixed unit of work over and over on the server's
// CPU at idle priority, in the gaps the server leaves, and times it in its
// own thread CPU time. The cost of a unit is the speed of the core as this
// VM sees it during exactly the interval the server is measured in, and
// tuples_per_cpu_s is scaled by it to the nominal speed below. Over 14
// alternating runs the scaled number stayed within 5 % where the raw one
// moved by 17 %.

// calibNominalNS is the CPU time of one unit on the seed host's typical
// core; it only fixes the scale, so that scaled and raw numbers are of
// the same size there. Changing it or calibUnit re-bases every claim.
const calibNominalNS = 300_000

// calibMinUnits is how many units a calibrator must have finished between
// two readings for their cost to mean anything. A server that leaves its
// CPU no gaps gives fewer, and is then not scaled.
const calibMinUnits = 50

var (
	calibKeys = make([]float64, 1<<12)
	calibHits = make(map[uint64]uint64, 1<<12)
)

// calibUnit is the fixed work: fill 4096 floats from a xorshift sequence,
// count their low bits in a map, sort them. Branchy, and about 200 KiB of
// working set: it lives in the L2 cache it shares with the server, like
// the server's own ring and buffers.
func calibUnit() {
	x := uint64(88172645463325252)
	for i := range calibKeys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calibKeys[i] = float64(x>>11) / (1 << 53)
		calibHits[x&0xfff] += x
	}
	sort.Float64s(calibKeys)
}

const (
	clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	schedOther         = 0
	schedIdle          = 5
)

func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

func setScheduler(policy uintptr) error {
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, policy, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return errno
	}
	return nil
}

// calibrator is the running calibration thread. units and cpuNS only grow;
// a caller reads them at both edges of an interval.
type calibrator struct {
	quit  atomic.Bool
	done  chan struct{}
	units atomic.Int64
	cpuNS atomic.Int64
}

// startCalibrator starts the calibration thread on the server's CPU at
// SCHED_IDLE, so the server preempts it the moment it has work. Where the
// host could not be split, or refuses the policy, it returns an error and
// the run goes on unscaled.
func startCalibrator(cpus cpuSplit) (*calibrator, error) {
	if cpus.server.empty() {
		return nil, fmt.Errorf("the server has no CPU of its own")
	}
	c := &calibrator{done: make(chan struct{})}
	ready := make(chan error)
	go func() {
		defer close(c.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		err := setAffinity(0, cpus.server)
		if err == nil {
			defer setAffinity(0, cpus.harness)
			if err = setScheduler(schedIdle); err == nil {
				defer setScheduler(schedOther)
			}
		}
		ready <- err
		if err != nil {
			return
		}
		for !c.quit.Load() {
			t0 := threadCPU()
			calibUnit()
			c.cpuNS.Add(int64(threadCPU() - t0))
			c.units.Add(1)
		}
	}()
	if err := <-ready; err != nil {
		<-c.done
		return nil, err
	}
	return c, nil
}

// stop may be called more than once, and on a nil calibrator.
func (c *calibrator) stop() {
	if c == nil {
		return
	}
	c.quit.Store(true)
	<-c.done
}

// calibReading is one reading of a calibrator's counters.
type calibReading struct{ units, cpuNS int64 }

// read is safe on a nil calibrator: it reads zeros, and scale then
// returns 1.
func (c *calibrator) read() calibReading {
	if c == nil {
		return calibReading{}
	}
	return calibReading{c.units.Load(), c.cpuNS.Load()}
}

// scale is the factor that turns work per CPU second measured between two
// readings into work per CPU second of the nominal core: the unit's cost
// in that interval over its nominal cost. It is 1 when too few units ran.
func (a calibReading) scale(b calibReading) float64 {
	units := b.units - a.units
	if units < calibMinUnits {
		return 1
	}
	return float64(b.cpuNS-a.cpuNS) / float64(units) / calibNominalNS
}
