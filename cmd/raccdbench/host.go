package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
)

// hostInfo fingerprints the machine a record was measured on: absolute
// numbers do not transfer between hosts, so every record names its own.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	OS         string `json:"os"`
}

func fingerprintHost() hostInfo {
	h := hostInfo{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown", // a plain source checkout carries no VCS metadata
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				h.Commit += "+dirty"
			}
		}
	}
	return h
}

// resetPeakRSS restarts the process's peak resident set (VmHWM) from its
// current resident set, so that peakRSSMB covers what follows.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// hostCounters is a snapshot of the Go runtime's allocation and CPU
// accounting; differences between two snapshots cover a pass.
type hostCounters struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

func readHost() hostCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	c := hostCounters{allocBytes: ms.TotalAlloc, allocObjects: ms.Mallocs}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		c.totalCPU = samples[1].Value.Float64()
	}
	return c
}

func (c hostCounters) sub(o hostCounters) hostCounters {
	return hostCounters{
		allocBytes:   c.allocBytes - o.allocBytes,
		allocObjects: c.allocObjects - o.allocObjects,
		gcCPU:        c.gcCPU - o.gcCPU,
		totalCPU:     c.totalCPU - o.totalCPU,
	}
}

func (c hostCounters) add(o hostCounters) hostCounters {
	return hostCounters{
		allocBytes:   c.allocBytes + o.allocBytes,
		allocObjects: c.allocObjects + o.allocObjects,
		gcCPU:        c.gcCPU + o.gcCPU,
		totalCPU:     c.totalCPU + o.totalCPU,
	}
}
