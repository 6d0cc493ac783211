package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// stamp identifies where and on what a result was measured.
type stamp struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	CPU        string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
}

func newStamp(seed int64) stamp {
	return stamp{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		CPU:        cpuModel(),
		Seed:       seed,
	}
}

// commit is the VCS revision the go command stamped into the binary, or
// "unknown" when it was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// usage is the process's CPU time so far and its peak resident memory.
func usage() (cpu time.Duration, peakRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss
}
