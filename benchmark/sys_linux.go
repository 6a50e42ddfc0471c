package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks the calling goroutine until t. It sleeps in the
// kernel rather than on a runtime timer: an idle Go scheduler waits for
// timers in whole milliseconds, which would make the open-loop
// generator, not the system under test, up to 1 ms late.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(time.Until(t))
			return
		}
	}
}

// cpuTime is the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
