package main

import (
	"runtime"
	"sync"
	"time"
)

// The reference kernel is a fixed computation, independent of the router's
// code, measured just before and just after every timed region. On a
// shared host, neighbours that contend for caches, memory bandwidth or a
// core's sibling thread change the CPU time of every computation by 20%
// or more for minutes at a time; the kernel's CPU time moves with them.
// Expressing a region's CPU time in units of the kernel's keeps what the
// router's code costs and drops most of what the host did: between two
// sets of eco_session runs an hour apart, the passes' median CPU time
// moved by 17% and their reference time by 2%. The kernel resembles the
// router's hot loop: a shortest-path search over a grid with a binary
// heap, its arrays allocated per run.
const (
	refSide = 320 // grid side of one kernel search
	refRuns = 2   // searches per goroutine in one measurement
	// refNominal is the kernel's median CPU time on the 2-vCPU host the
	// bounds were measured on; reference times are scaled by it so they
	// read as that host's CPU seconds.
	refNominal = 72 * time.Millisecond
)

// refSeconds returns cpu, the CPU time of a region bracketed by kernel
// measurements before and after, in reference seconds: cpu over the
// brackets' mean, times refNominal.
func refSeconds(cpu, before, after time.Duration) float64 {
	return cpu.Seconds() * refNominal.Seconds() / ((before + after).Seconds() / 2)
}

// refCPU runs the reference kernel on GOMAXPROCS goroutines at once, so
// it samples every CPU a pass runs on, and returns the CPU time it used.
func refCPU() time.Duration {
	procs := runtime.GOMAXPROCS(0)
	sums := make([]int64, procs)
	var wg sync.WaitGroup
	c0 := cpuTime()
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < refRuns; i++ {
				sums[g] += refSearch(uint32(g*refRuns + i + 1))
			}
		}(g)
	}
	wg.Wait()
	d := cpuTime() - c0
	for _, s := range sums {
		refSink += s
	}
	return d
}

// refSink keeps the kernel's results live.
var refSink int64

// refSearch runs Dijkstra from the grid's corner over edge weights 1-16
// drawn from a hash of the edge and salt, and returns the sum of the
// distances.
func refSearch(salt uint32) int64 {
	const n = refSide * refSide
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = 1 << 30
	}
	heap := make([]uint64, 0, 1024) // distance<<32 | node
	push := func(x uint64) {
		heap = append(heap, x)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p] <= heap[i] {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() uint64 {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, m := 2*i+1, i
			if l < last && heap[l] < heap[m] {
				m = l
			}
			if l+1 < last && heap[l+1] < heap[m] {
				m = l + 1
			}
			if m == i {
				break
			}
			heap[m], heap[i] = heap[i], heap[m]
			i = m
		}
		return top
	}
	weight := func(u, v int) int32 {
		h := uint32(u)*0x9e3779b1 ^ uint32(v)*0x85ebca77 ^ salt
		h ^= h >> 15
		h *= 0x2c1b3c6d
		h ^= h >> 12
		return int32(h&15) + 1
	}
	dist[0] = 0
	push(0)
	for len(heap) > 0 {
		x := pop()
		d, u := int32(x>>32), int(uint32(x))
		if d > dist[u] {
			continue
		}
		x0, y0 := u%refSide, u/refSide
		for dir := 0; dir < 4; dir++ {
			x1, y1 := x0, y0
			switch dir {
			case 0:
				x1++
			case 1:
				x1--
			case 2:
				y1++
			default:
				y1--
			}
			if x1 < 0 || y1 < 0 || x1 >= refSide || y1 >= refSide {
				continue
			}
			v := y1*refSide + x1
			if nd := d + weight(u, v); nd < dist[v] {
				dist[v] = nd
				push(uint64(nd)<<32 | uint64(v))
			}
		}
	}
	var s int64
	for _, d := range dist {
		s += int64(d)
	}
	return s
}
