package main

import (
	"syscall"
	"time"
	"unsafe"
)

// cpuNow is this process's CPU time, all threads
// (CLOCK_PROCESS_CPUTIME_ID, nanosecond resolution).
//
// Every host duration the benchmark reports is a difference of cpuNow,
// not of the wall clock: on a shared virtual machine the hypervisor
// steals a varying share of wall time (5-25% on the 2-vCPU host the
// bounds were set on, where one Figure 13 sweep took 4.5-5.7 s of wall
// time but 6.0-6.25 s of CPU time), and the kernel leaves stolen time
// out of a task's CPU time. Work saved anywhere in the process, the
// collector included, still shows.
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		// Linux always provides this clock; failing to read it is a bug.
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
