package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"unsafe"
)

// Every trial runs on one CPU. On this two-vCPU sandbox a second CPU buys
// the served stack nothing — one client on one CPU and two clients on two
// both complete 50 k 4 KiB reads a second — and costs it its repeatability:
// with the op handed from goroutine to goroutine across CPUs its latency is
// whatever the wake-ups make it (quartiles 17.7 and 33 µs within one trial,
// the median 20 to 28 µs from trial to trial), where on one CPU every op
// walks the same path (17.0 µs ± 1 % in eleven trials of twelve). The Go
// runtime sizes GOMAXPROCS from the affinity mask it starts under, so a trial
// started on one CPU also collects garbage on that CPU, not beside the
// measured loop. README, "Each trial runs on one CPU", has the table.

// cpuSet is the kernel's cpu_set_t.
type cpuSet [16]uint64

// allowedCPUs lists the CPUs the calling thread may run on.
func allowedCPUs() ([]int, error) {
	var set cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for w, bits := range set {
		for b := 0; b < 64; b++ {
			if bits>>b&1 == 1 {
				cpus = append(cpus, w*64+b)
			}
		}
	}
	return cpus, nil
}

// pinThread locks the calling goroutine to its thread and the thread to the
// last CPU it may run on (the first takes most of a small machine's device
// interrupts). A process inherits the affinity of the thread that forks it,
// so every trial started from this goroutine afterwards runs there.
func pinThread() error {
	cpus, err := allowedCPUs()
	if err != nil {
		return err
	}
	runtime.LockOSThread()
	cpu := cpus[len(cpus)-1]
	var set cpuSet
	set[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); errno != 0 {
		return fmt.Errorf("sched_setaffinity to CPU %d: %w", cpu, errno)
	}
	return nil
}

// onlineCPUs counts the machine's CPUs, whatever this process may use.
func onlineCPUs() int {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.NumCPU()
	}
	return strings.Count("\n"+string(info), "\nprocessor")
}
