package noc

import "fmt"

// Ring is a bidirectional ring of cores+1 nodes with the hub at index
// cores. Transfers take the shorter direction; ties go clockwise. Each
// directed link is reserved hop by hop, like the mesh.
type Ring struct {
	nodes     int
	hub       int
	perHop    int64
	occupancy int64

	// free[n][d]: time directed link out of node n becomes free.
	// Direction 0 is clockwise (toward (n+1) mod nodes), 1 is
	// counter-clockwise.
	free [][2]int64

	Stats
}

// NewRing creates a ring connecting cores cores and one hub node with the
// given per-hop latency and per-link occupancy in cycles.
func NewRing(cores, perHop, occupancy int) *Ring {
	if cores < 1 {
		panic(fmt.Sprintf("noc: ring needs at least one core, got %d", cores))
	}
	if occupancy < 1 {
		occupancy = 1
	}
	n := cores + 1
	return &Ring{
		nodes:     n,
		hub:       cores,
		perHop:    int64(perHop),
		occupancy: int64(occupancy),
		free:      make([][2]int64, n),
	}
}

// Hops returns the shortest-path route length in links from src to the hub.
func (r *Ring) Hops(src int) int {
	cw := (r.hub - src + r.nodes) % r.nodes
	ccw := r.nodes - cw
	if ccw < cw {
		return ccw
	}
	return cw
}

// AccessFrom implements Fabric.
func (r *Ring) AccessFrom(core int, now int64) int64 {
	r.Transactions++
	t := now
	cw := (r.hub - core + r.nodes) % r.nodes
	ccw := r.nodes - cw
	dir, hops := 0, cw
	if ccw < cw {
		dir, hops = 1, ccw
	}
	node := core
	for i := 0; i < hops; i++ {
		lk := &r.free[node][dir]
		start := t
		if *lk > start {
			start = *lk
		}
		r.StallTotal += start - t
		*lk = start + r.occupancy
		r.BusyTotal += r.occupancy
		t = start + r.perHop
		if dir == 0 {
			node = (node + 1) % r.nodes
		} else {
			node = (node - 1 + r.nodes) % r.nodes
		}
		r.HopTotal++
	}
	return t - now
}

// Utilization implements Fabric.
func (r *Ring) Utilization(now int64) float64 {
	return r.Stats.utilization(2*r.nodes, now)
}

// ResetStats implements Fabric.
func (r *Ring) ResetStats() {
	for i := range r.free {
		r.free[i] = [2]int64{}
	}
	r.Stats = Stats{}
}

var _ Fabric = (*Ring)(nil)
