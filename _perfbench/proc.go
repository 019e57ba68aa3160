package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux ABI Go supports.
const clockTicks = 100

// parseStatCPU returns utime+stime in seconds from the text of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	// After ") " come field 3 (state) onwards; utime and stime are fields
	// 14 and 15, i.e. indexes 11 and 12 here.
	f := strings.Fields(stat[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return float64(utime+stime) / clockTicks, nil
}

// parseStatusHWM returns VmHWM (peak resident set) in MiB from the text
// of /proc/<pid>/status.
func parseStatusHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("status: no VmHWM line")
}

// procCPU reads the user+system CPU seconds of a process ("self" for
// this one).
func procCPU(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// procPeakRSS reads a process's peak resident set in MiB.
func procPeakRSS(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(string(b))
}

// hostSteal reads the machine's total steal time in seconds from
// /proc/stat: CPU time the hypervisor gave to other guests while this
// one wanted to run.
func hostSteal() (float64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("/proc/stat: malformed cpu line %q", line)
	}
	steal, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/stat steal: %w", err)
	}
	return float64(steal) / clockTicks, nil
}
