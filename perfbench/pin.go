package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The serve workload splits the box between the server and the load
// generator, one CPU each, the way the generator would run on a machine
// of its own: neither can then steal the other's CPU, nor can the
// server's garbage collector delay the generator's sends. Pinning needs
// Linux's sched_{get,set}affinity; elsewhere both share every CPU.

// affinitySyscalls maps GOARCH to Linux's (sched_getaffinity,
// sched_setaffinity) numbers; the syscall package names them only on
// Linux builds, and this file must type-check everywhere.
var affinitySyscalls = map[string][2]uintptr{
	"amd64":   {204, 203},
	"arm64":   {123, 122},
	"riscv64": {123, 122},
}

// cpuMask is a sched_setaffinity bit set (1,024 CPUs).
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs(get uintptr) ([]int, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(get, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil, fmt.Errorf("reading CPU affinity: %w", e)
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// pinProcess restricts every thread of this process to one CPU and
// sizes the Go scheduler to it. Threads started later inherit the mask.
func pinProcess(cpu int) error {
	nr, ok := affinitySyscalls[runtime.GOARCH]
	if !ok || runtime.GOOS != "linux" {
		return nil
	}
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	for pass := 0; pass < 2; pass++ { // a second pass catches threads born during the first
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if _, _, e := syscall.RawSyscall(nr[1], uintptr(tid), unsafe.Sizeof(m),
				uintptr(unsafe.Pointer(&m))); e != 0 && e != syscall.ESRCH {
				return fmt.Errorf("pinning thread %d to CPU %d: %w", tid, cpu, e)
			}
		}
	}
	runtime.GOMAXPROCS(1)
	return nil
}

// serveCPUs picks the generator's and the server's CPU; ok is false
// where pinning is unavailable or the box has one CPU, and both share.
func serveCPUs() (gen, srv int, ok bool, err error) {
	nr, known := affinitySyscalls[runtime.GOARCH]
	if !known || runtime.GOOS != "linux" {
		return 0, 0, false, nil
	}
	cpus, err := allowedCPUs(nr[0])
	if err != nil || len(cpus) < 2 {
		return 0, 0, false, err
	}
	return cpus[0], cpus[1], true, nil
}
