package bench

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"syscall"
	"unsafe"
)

// CPU placement during the paced phase. Left to the scheduler, the
// server's and the generator's threads share the host's CPUs in
// whatever arrangement they happen to wake up in, and at a few
// thousand wake-ups a second the arrangement decides the cost of each
// (same-CPU or cross-CPU wake-up): on the 2-vCPU reference host
// identical runs fell into a fast and a slow mode 20 % apart in server
// CPU per batch. So for the paced phase the harness splits the CPUs it
// may use in two — benchd gets the lower half, the generator the upper
// half — and lifts the split afterwards: in the saturation phase both
// sides want all the CPU there is, and a generator held to one CPU
// becomes the bottleneck. With one CPU nothing is pinned.

type cpuMask [16]uint64 // 1024 CPUs, the kernel's default cpu_set_t

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, errno
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// cpuSplit is the CPUs this process started with, and their two halves;
// ok is false when there are fewer than two.
var cpuSplit = sync.OnceValue(func() (s struct {
	all, server, generator cpuMask
	ok                     bool
}) {
	all, err := getAffinity(0)
	if err != nil {
		return s
	}
	var cpus []int
	for c := 0; c < len(all)*64; c++ {
		if all.has(c) {
			cpus = append(cpus, c)
		}
	}
	if len(cpus) < 2 {
		return s
	}
	for i, c := range cpus {
		if i < len(cpus)/2 {
			s.server.set(c)
		} else {
			s.generator.set(c)
		}
	}
	s.all, s.ok = all, true
	return s
})

// confine moves every thread of process pid onto m. Threads started
// later inherit the mask of the thread that starts them; two passes
// catch a thread started, during the first, by one not yet moved.
func confine(pid int, m cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// ESRCH: the thread exited since the directory was read.
			if err := setAffinity(tid, m); err != nil && err != syscall.ESRCH {
				return err
			}
		}
	}
	return nil
}

// splitCPUs confines benchd and this process to their halves of the
// CPUs and returns the function that lifts the split.
func splitCPUs(serverPid int) (release func(), err error) {
	s := cpuSplit()
	if !s.ok {
		return func() {}, nil
	}
	release = func() {
		// Widening a mask to the CPUs the process started with; a
		// failure leaves the rest of the run confined, slower but right.
		_ = confine(serverPid, s.all)
		_ = confine(os.Getpid(), s.all)
	}
	if err := confine(serverPid, s.server); err != nil {
		release()
		return nil, err
	}
	if err := confine(os.Getpid(), s.generator); err != nil {
		release()
		return nil, err
	}
	return release, nil
}
