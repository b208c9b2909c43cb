// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel. It is the foundation of Howsim: disks, interconnects,
// networks, processors and operating-system models are all expressed as
// processes (cooperatively scheduled coroutines) that exchange messages
// through mailboxes and contend for resources.
//
// The kernel is strictly single-threaded from the simulation's point of
// view: exactly one process runs at any instant, and control is handed
// between the scheduler and processes by direct coroutine switches. Together
// with FIFO waiter queues and a monotonically increasing event sequence
// number this makes every simulation run bit-for-bit deterministic.
package sim

import (
	"fmt"
	"time"
)

// Time is virtual simulation time in nanoseconds. The zero value is the
// beginning of the simulation.
type Time int64

// Common durations expressed in simulation time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Duration converts t to a time.Duration for formatting convenience.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats t with an automatically chosen unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// TransferTime returns the time needed to move bytes at bytesPerSec.
// It rounds up to the next nanosecond so that a nonzero transfer always
// takes nonzero time.
func TransferTime(bytes int64, bytesPerSec float64) Time {
	if bytes <= 0 || bytesPerSec <= 0 {
		return 0
	}
	ns := float64(bytes) / bytesPerSec * float64(Second)
	t := Time(ns)
	if float64(t) < ns {
		t++
	}
	return t
}

// Window is a half-open interval [Start, End) of virtual time: a pipe
// outage, a processor's slowdown.
type Window struct {
	Start, End Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t Time) bool { return t >= w.Start && t < w.End }

// Duration returns the window's length.
func (w Window) Duration() Time { return w.End - w.Start }
