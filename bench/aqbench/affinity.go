package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The server gets one CPU to itself and runs on one P; the harness keeps
// the other CPUs. Measured on the seed host (2 vCPUs): left to the
// kernel, the generator's threads follow their wake-ups onto the
// server's CPU and share it while the other sits idle, and the CPU per
// tuple of an unpinned GOMAXPROCS=2 server settles anywhere in a ±7 %
// band from one process to the next; split like this the band is about
// ±2 %. tuples_per_cpu_s is therefore single-core efficiency.
const serverGOMAXPROCS = "1"

// cpuMask is a sched_setaffinity bit mask, wide enough for 1024 CPUs.
type cpuMask [16]uint64

func (m cpuMask) empty() bool { return m == cpuMask{} }

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m[0])))
	if errno != 0 {
		return m, errno
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m[0])))
	if errno != 0 {
		return errno
	}
	return nil
}

// cpuSplit is which CPUs the server and the harness may run on; the zero
// value means the host could not be split and nothing is pinned.
type cpuSplit struct{ server, harness cpuMask }

// splitCPUs reserves the highest CPU this process may use for the server
// and moves every harness thread onto the rest. Threads the runtime
// starts later inherit the narrowed mask from the thread that starts them.
func splitCPUs() (cpuSplit, error) {
	all, err := getAffinity(0)
	if err != nil {
		return cpuSplit{}, err
	}
	var s cpuSplit
	s.harness = all
	for i := len(all)*64 - 1; i >= 0; i-- {
		if all[i/64]&(1<<(i%64)) != 0 {
			s.server[i/64] = 1 << (i % 64)
			s.harness[i/64] &^= 1 << (i % 64)
			break
		}
	}
	if s.harness.empty() {
		return cpuSplit{}, errors.New("only one CPU available")
	}
	// Twice: a thread born during the first pass took its creator's old mask.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return cpuSplit{}, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := setAffinity(tid, s.harness); err != nil && !errors.Is(err, syscall.ESRCH) {
				return cpuSplit{}, fmt.Errorf("sched_setaffinity: %w", err)
			}
		}
	}
	return s, nil
}

// startOn starts cmd on the server's CPU. A child inherits the affinity
// of the thread that forks it, so the calling thread borrows the server's
// mask around the fork.
func (s cpuSplit) startOn(cmd *exec.Cmd) error {
	if s.server.empty() {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, s.server); err != nil {
		return fmt.Errorf("sched_setaffinity: %w", err)
	}
	defer setAffinity(0, s.harness)
	return cmd.Start()
}
