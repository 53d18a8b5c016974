package main

import (
	"errors"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified. An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// instanceMean returns the mean over inputs of the median of each
// input's samples, so every instance weighs the same however many passes
// it got; inputs without samples are skipped, and no samples yield 0.
func instanceMean(byInput [][]float64) float64 {
	sum, n := 0.0, 0
	for _, xs := range byInput {
		if len(xs) > 0 {
			sum += median(xs)
			n++
		}
	}
	return sum / float64(max(n, 1))
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("/proc/self/status has no VmHWM line")
}

// resetPeakRSS resets the process's peak resident set size to its
// current resident set size.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuTime returns the CPU time the process has used, user plus system.
// Time the hypervisor steals from a virtual CPU is not charged to it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch times a pass's timed region in wall-clock and CPU time.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: cpuTime()} }

// stop records the elapsed times into p.
func (s stopwatch) stop(p *passResult) {
	p.wall = time.Since(s.wall)
	p.cpu = cpuTime() - s.cpu
}
