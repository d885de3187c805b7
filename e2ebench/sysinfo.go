package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// command is exec.Command for a child that must not outlive the
// benchmark: should this process die first, the kernel kills the child.
func command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// peakRSSMB reads VmHWM, the peak resident set, of a process ("self"
// or a pid) in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, idle, steal uint64 }

func readCPUTimes() (cpuTimes, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var c cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}, err
		}
		c.total += v
		switch i {
		case 3, 4: // idle, iowait
			c.idle += v
		case 7:
			c.steal = v
		}
	}
	return c, nil
}

func loadAvg1() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(raw))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// runContext is the machine record printed with every run, so that an
// outlying run can be traced to the host rather than to the program.
type runContext struct {
	NProc      int          `json:"nproc"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	GoVersion  string       `json:"go_version"`
	Windows    []hostWindow `json:"windows"`
}

// hostWindow is the host's CPU use over one timed window: the share of
// all CPU time that was busy (any process) and stolen by the
// hypervisor, and the 1-minute load average at its end.
type hostWindow struct {
	Name     string  `json:"name"`
	Seconds  float64 `json:"seconds"`
	BusyPct  float64 `json:"busy_pct"`
	StealPct float64 `json:"steal_pct"`
	Load1    float64 `json:"load1"`
}

func newRunContext() *runContext {
	return &runContext{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// window starts a timed window; the returned func closes it and records
// it.
func (rc *runContext) window(name string) func() {
	start := time.Now()
	before, err := readCPUTimes()
	return func() {
		after, err2 := readCPUTimes()
		hw := hostWindow{Name: name, Seconds: time.Since(start).Seconds(), BusyPct: -1, StealPct: -1, Load1: loadAvg1()}
		if err == nil && err2 == nil && after.total > before.total {
			d := float64(after.total - before.total)
			hw.BusyPct = 100 * (d - float64(after.idle-before.idle)) / d
			hw.StealPct = 100 * float64(after.steal-before.steal) / d
		}
		rc.Windows = append(rc.Windows, hw)
	}
}
