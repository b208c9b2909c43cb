package tasks

import "fmt"

// ExecMode selects whether a run executes on one kernel or, where the
// (architecture, task) pair supports it, sharded across cores. Both
// produce byte-identical simulated results.
type ExecMode int

const (
	// ModeEvent runs the whole simulation on one kernel.
	ModeEvent ExecMode = iota
	// ModeParallel partitions shardable Active Disk runs into per-disk
	// leaf kernels driven by a ShardGroup, each on its own core. Runs
	// that do not shard fall back to one kernel.
	ModeParallel
)

func (m ExecMode) String() string {
	switch m {
	case ModeEvent:
		return "event"
	case ModeParallel:
		return "parallel"
	}
	return fmt.Sprintf("ExecMode(%d)", int(m))
}

// ParseExecMode converts a -procmode flag value to an ExecMode.
func ParseExecMode(s string) (ExecMode, error) {
	switch s {
	case "event":
		return ModeEvent, nil
	case "parallel":
		return ModeParallel, nil
	}
	return ModeEvent, fmt.Errorf("tasks: unknown exec mode %q (want event or parallel)", s)
}
