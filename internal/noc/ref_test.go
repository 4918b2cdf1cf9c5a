package noc

import "fmt"

// The three fabrics below are the per-topology implementations the one
// route-table Fabric replaced, kept verbatim as references:
// FuzzFabricMatchesReference checks the Fabric against them.

// refStats aggregates the counters shared by all topologies.
type refStats struct {
	// Transactions counts AccessFrom calls.
	Transactions uint64
	// HopTotal is the total number of link traversals.
	HopTotal uint64
	// StallTotal is the total cycles transfers spent waiting for links.
	StallTotal int64
	// BusyTotal is the total link-busy cycles across all links.
	BusyTotal int64
}

// TxCount returns the number of transactions issued.
func (s refStats) TxCount() uint64 { return s.Transactions }

// StallCycles returns the total cycles transfers spent queueing.
func (s refStats) StallCycles() int64 { return s.StallTotal }

// AvgHops returns the mean route length in links per transaction.
func (s refStats) AvgHops() float64 {
	if s.Transactions == 0 {
		return 0
	}
	return float64(s.HopTotal) / float64(s.Transactions)
}

// utilization is the shared busy-fraction computation: BusyTotal spread
// over nlinks links for now cycles.
func (s refStats) utilization(nlinks int, now int64) float64 {
	if now <= 0 || nlinks <= 0 {
		return 0
	}
	return float64(s.BusyTotal) / (float64(nlinks) * float64(now))
}

// refBus is the baseline fabric, a shared split-transaction bus: every L1-miss
// transaction (L2 access, coherence broadcast, intervention) takes a fixed
// hop latency and occupies the bus for a configurable number of cycles, so
// co-running cores contend for a finite transaction bandwidth. A
// transaction issued at time t completes its request phase after
// max(t, busFree) - t queueing plus the hop latency; the bus stays busy for
// the occupancy.
type refBus struct {
	hop       int64
	occupancy int64
	busFree   int64

	Transactions uint64
	StallTotal   int64 // cycles spent queueing
	BusyTotal    int64 // cycles the bus was occupied
}

// newRefBus creates a bus with the given hop latency (cycles from a core to the
// L2/snoop point) and per-transaction occupancy (address/snoop slot width).
func newRefBus(hopLatency, occupancy int) *refBus {
	if occupancy < 1 {
		occupancy = 1
	}
	return &refBus{hop: int64(hopLatency), occupancy: int64(occupancy)}
}

// Access issues a transaction at time now and returns its total latency
// (queueing + hop).
func (b *refBus) Access(now int64) int64 {
	b.Transactions++
	start := now
	if b.busFree > start {
		start = b.busFree
	}
	b.StallTotal += start - now
	b.busFree = start + b.occupancy
	b.BusyTotal += b.occupancy
	return (start - now) + b.hop
}

// AccessFrom issues a transaction at time now and returns its total
// latency. The bus is symmetric, so the requesting core is irrelevant; the
// method exists so the bus satisfies the same fabric contract as the mesh
// and ring networks.
func (b *refBus) AccessFrom(_ int, now int64) int64 { return b.Access(now) }

// TxCount returns the number of transactions issued.
func (b *refBus) TxCount() uint64 { return b.Transactions }

// StallCycles returns the total cycles transactions spent queueing.
func (b *refBus) StallCycles() int64 { return b.StallTotal }

// Utilization returns the busy fraction of cycles up to now.
func (b *refBus) Utilization(now int64) float64 {
	if now <= 0 {
		return 0
	}
	return float64(b.BusyTotal) / float64(now)
}

// ResetStats clears statistics and pending occupancy.
func (b *refBus) ResetStats() {
	b.busFree = 0
	b.Transactions, b.StallTotal, b.BusyTotal = 0, 0, 0
}

// refMesh is a 2D mesh with XY dimension-order routing. Cores occupy grid
// positions 0..cores-1 in row-major order; the hub (shared L2 / memory
// controller) occupies position cores. XY routing first walks the X
// dimension to the hub's column, then the Y dimension to its row; with
// per-link time-stamped reservations this is deadlock-free by construction
// (the route acquires resources in a fixed dimension order and never holds
// a link while waiting — a delayed header simply starts later).
type refMesh struct {
	width, height int
	hub           int
	perHop        int64
	occupancy     int64

	// free[n][d] is the time directed link (node n, direction d) becomes
	// free. Directions: 0 east (+x), 1 west (-x), 2 south (+y), 3 north
	// (-y).
	free [][4]int64

	refStats
}

// newRefMesh creates a mesh connecting cores cores and one hub node, with the
// given per-hop latency and per-link occupancy per transaction in cycles.
// The grid is the smallest near-square that holds cores+1 nodes.
func newRefMesh(cores, perHop, occupancy int) *refMesh {
	if cores < 1 {
		panic(fmt.Sprintf("noc: mesh needs at least one core, got %d", cores))
	}
	if occupancy < 1 {
		occupancy = 1
	}
	nodes := cores + 1
	w := 1
	for w*w < nodes {
		w++
	}
	h := (nodes + w - 1) / w
	return &refMesh{
		width:     w,
		height:    h,
		hub:       cores,
		perHop:    int64(perHop),
		occupancy: int64(occupancy),
		free:      make([][4]int64, w*h),
	}
}

// Width returns the grid width in nodes.
func (m *refMesh) Width() int { return m.width }

// Height returns the grid height in nodes.
func (m *refMesh) Height() int { return m.height }

func (m *refMesh) pos(node int) (x, y int) { return node % m.width, node / m.width }

// Hops returns the XY route length in links from node src to the hub.
func (m *refMesh) Hops(src int) int {
	sx, sy := m.pos(src)
	hx, hy := m.pos(m.hub)
	dx, dy := hx-sx, hy-sy
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// AccessFrom implements Fabric: the transaction walks the XY route link by
// link, waiting for each link to free.
func (m *refMesh) AccessFrom(core int, now int64) int64 {
	m.Transactions++
	t := now
	x, y := m.pos(core)
	hx, hy := m.pos(m.hub)
	node := core
	step := func(dir int, nx, ny int) {
		lk := &m.free[node][dir]
		start := t
		if *lk > start {
			start = *lk
		}
		m.StallTotal += start - t
		*lk = start + m.occupancy
		m.BusyTotal += m.occupancy
		t = start + m.perHop
		x, y = nx, ny
		node = ny*m.width + nx
		m.HopTotal++
	}
	for x != hx {
		if x < hx {
			step(0, x+1, y)
		} else {
			step(1, x-1, y)
		}
	}
	for y != hy {
		if y < hy {
			step(2, x, y+1)
		} else {
			step(3, x, y-1)
		}
	}
	return t - now
}

// Utilization implements Fabric. Each node has up to four outgoing links;
// edge links that cannot exist are still counted conservatively, so the
// reported figure slightly understates true per-link utilization.
func (m *refMesh) Utilization(now int64) float64 {
	return m.refStats.utilization(4*len(m.free), now)
}

// ResetStats implements Fabric.
func (m *refMesh) ResetStats() {
	for i := range m.free {
		m.free[i] = [4]int64{}
	}
	m.refStats = refStats{}
}

// refRing is a bidirectional ring of cores+1 nodes with the hub at index
// cores. Transfers take the shorter direction; ties go clockwise. Each
// directed link is reserved hop by hop, like the mesh.
type refRing struct {
	nodes     int
	hub       int
	perHop    int64
	occupancy int64

	// free[n][d]: time directed link out of node n becomes free.
	// Direction 0 is clockwise (toward (n+1) mod nodes), 1 is
	// counter-clockwise.
	free [][2]int64

	refStats
}

// newRefRing creates a ring connecting cores cores and one hub node with the
// given per-hop latency and per-link occupancy in cycles.
func newRefRing(cores, perHop, occupancy int) *refRing {
	if cores < 1 {
		panic(fmt.Sprintf("noc: ring needs at least one core, got %d", cores))
	}
	if occupancy < 1 {
		occupancy = 1
	}
	n := cores + 1
	return &refRing{
		nodes:     n,
		hub:       cores,
		perHop:    int64(perHop),
		occupancy: int64(occupancy),
		free:      make([][2]int64, n),
	}
}

// Hops returns the shortest-path route length in links from src to the hub.
func (r *refRing) Hops(src int) int {
	cw := (r.hub - src + r.nodes) % r.nodes
	ccw := r.nodes - cw
	if ccw < cw {
		return ccw
	}
	return cw
}

// AccessFrom implements Fabric.
func (r *refRing) AccessFrom(core int, now int64) int64 {
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
func (r *refRing) Utilization(now int64) float64 {
	return r.refStats.utilization(2*r.nodes, now)
}

// ResetStats implements Fabric.
func (r *refRing) ResetStats() {
	for i := range r.free {
		r.free[i] = [2]int64{}
	}
	r.refStats = refStats{}
}
