// Package noc models the on-chip interconnection network between the
// private L1 caches and the shared L2/memory-controller hub. The paper's
// framework (Figure 2) places the interconnection network inside the memory
// hierarchy simulator; swapping fabrics is exactly the kind of system-level
// trade-off interval simulation is meant to explore without touching the
// core model.
//
// There is one contention model and three route tables. A Fabric is a set
// of directed links, each with the time it next becomes free, and for each
// core the links its request crosses to reach the hub. A transfer reserves
// the links of its route in order; a link occupied by an earlier transfer
// delays the header until it frees. This is a transaction-level
// approximation of wormhole routing — adequate for the queueing-under-load
// behaviour the evaluation studies, and deliberately far cheaper than
// flit-level simulation. The topologies differ only in their routes:
//
//   - NewBus: the baseline split-transaction bus, one link every core
//     crosses;
//   - NewMesh: a 2D mesh with XY dimension-order routing;
//   - NewRing: a bidirectional ring, each request taking the shorter
//     direction.
//
// Only the request network is contended: the response path is assumed to
// use a dedicated data network.
package noc

import "fmt"

// Fabric is an on-chip network connecting cores to a shared hub (the L2 /
// memory controller).
type Fabric struct {
	hop       int64 // cycles per link traversal
	occupancy int64 // cycles a transfer holds each link
	// free[l] is the time link l becomes free.
	free []int64
	// routes[c] lists, in order, the links a request from core c crosses.
	routes [][]int32

	// Transactions counts AccessFrom calls.
	Transactions uint64
	// StallTotal is the total cycles transfers spent waiting for links.
	StallTotal int64
	// BusyTotal is the total link-busy cycles across all links.
	BusyTotal int64
}

// newFabric returns a fabric of links links for cores cores, with the
// routes left for the topology's constructor to fill.
func newFabric(kind string, cores, links, hop, occupancy int) *Fabric {
	if cores < 1 {
		panic(fmt.Sprintf("noc: %s needs at least one core, got %d", kind, cores))
	}
	if occupancy < 1 {
		occupancy = 1
	}
	return &Fabric{
		hop:       int64(hop),
		occupancy: int64(occupancy),
		free:      make([]int64, links),
		routes:    make([][]int32, cores),
	}
}

// NewBus creates the baseline fabric, a shared split-transaction bus: every
// L1-miss transaction (L2 access, coherence broadcast, intervention) takes
// a fixed hop latency (cycles from a core to the L2/snoop point) and
// occupies the bus for occupancy cycles (the address/snoop slot width), so
// co-running cores contend for a finite transaction bandwidth. The bus is
// one link that every core's route crosses.
func NewBus(cores, hop, occupancy int) *Fabric {
	f := newFabric("bus", cores, 1, hop, occupancy)
	bus := []int32{0}
	for c := range f.routes {
		f.routes[c] = bus
	}
	return f
}

// NewMesh creates a 2D mesh connecting cores cores and one hub node, with
// the given per-hop latency and per-link occupancy per transaction in
// cycles. The grid is the smallest near-square that holds cores+1 nodes.
// Cores occupy positions 0..cores-1 in row-major order and the hub
// position cores. XY routing first walks the X dimension to the hub's
// column, then the Y dimension to its row; with per-link time-stamped
// reservations this is deadlock-free by construction (the route acquires
// resources in a fixed dimension order and never holds a link while
// waiting — a delayed header simply starts later).
//
// Each node has four outgoing links, 4*node + 0 east (+x), 1 west (-x),
// 2 south (+y) and 3 north (-y). Edge links that cannot exist are still
// counted by Utilization, so it slightly understates true per-link
// utilization.
func NewMesh(cores, perHop, occupancy int) *Fabric {
	nodes := cores + 1
	w := 1
	for w*w < nodes {
		w++
	}
	h := (nodes + w - 1) / w
	f := newFabric("mesh", cores, 4*w*h, perHop, occupancy)
	hx, hy := cores%w, cores/w
	for c := range f.routes {
		x, y := c%w, c/w
		var route []int32
		for x != hx {
			dir, dx := 0, 1
			if x > hx {
				dir, dx = 1, -1
			}
			route = append(route, int32(4*(y*w+x)+dir))
			x += dx
		}
		for y != hy {
			dir, dy := 2, 1
			if y > hy {
				dir, dy = 3, -1
			}
			route = append(route, int32(4*(y*w+x)+dir))
			y += dy
		}
		f.routes[c] = route
	}
	return f
}

// NewRing creates a bidirectional ring of cores+1 nodes with the hub at
// index cores, with the given per-hop latency and per-link occupancy in
// cycles. Transfers take the shorter direction; ties go clockwise. Each
// node has two outgoing links, 2*node + 0 clockwise (toward (node+1) mod
// nodes) and 1 counter-clockwise.
func NewRing(cores, perHop, occupancy int) *Fabric {
	nodes := cores + 1
	f := newFabric("ring", cores, 2*nodes, perHop, occupancy)
	for c := range f.routes {
		cw := (cores - c + nodes) % nodes
		dir, step, hops := 0, 1, cw
		if ccw := nodes - cw; ccw < cw {
			dir, step, hops = 1, nodes-1, ccw
		}
		route := make([]int32, hops)
		for i, node := 0, c; i < hops; i++ {
			route[i] = int32(2*node + dir)
			node = (node + step) % nodes
		}
		f.routes[c] = route
	}
	return f
}

// Hops returns the route length in links from core to the hub.
func (f *Fabric) Hops(core int) int { return len(f.routes[core]) }

// AccessFrom issues a request transaction from core to the hub at time now
// and returns its total latency in cycles (queueing + traversal): the
// transfer walks its route link by link, waiting for each link to free.
func (f *Fabric) AccessFrom(core int, now int64) int64 {
	f.Transactions++
	t := now
	for _, l := range f.routes[core] {
		start := max(t, f.free[l])
		f.StallTotal += start - t
		f.free[l] = start + f.occupancy
		f.BusyTotal += f.occupancy
		t = start + f.hop
	}
	return t - now
}

// Utilization returns the mean busy fraction across links up to now.
func (f *Fabric) Utilization(now int64) float64 {
	if now <= 0 {
		return 0
	}
	return float64(f.BusyTotal) / (float64(len(f.free)) * float64(now))
}

// ResetStats clears statistics and pending link occupancy.
func (f *Fabric) ResetStats() {
	clear(f.free)
	f.Transactions, f.StallTotal, f.BusyTotal = 0, 0, 0
}
