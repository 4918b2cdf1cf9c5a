package noc

import "fmt"

// Mesh is a 2D mesh with XY dimension-order routing. Cores occupy grid
// positions 0..cores-1 in row-major order; the hub (shared L2 / memory
// controller) occupies position cores. XY routing first walks the X
// dimension to the hub's column, then the Y dimension to its row; with
// per-link time-stamped reservations this is deadlock-free by construction
// (the route acquires resources in a fixed dimension order and never holds
// a link while waiting — a delayed header simply starts later).
type Mesh struct {
	width, height int
	hub           int
	perHop        int64
	occupancy     int64

	// free[n][d] is the time directed link (node n, direction d) becomes
	// free. Directions: 0 east (+x), 1 west (-x), 2 south (+y), 3 north
	// (-y).
	free [][4]int64

	Stats
}

// NewMesh creates a mesh connecting cores cores and one hub node, with the
// given per-hop latency and per-link occupancy per transaction in cycles.
// The grid is the smallest near-square that holds cores+1 nodes.
func NewMesh(cores, perHop, occupancy int) *Mesh {
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
	return &Mesh{
		width:     w,
		height:    h,
		hub:       cores,
		perHop:    int64(perHop),
		occupancy: int64(occupancy),
		free:      make([][4]int64, w*h),
	}
}

// Width returns the grid width in nodes.
func (m *Mesh) Width() int { return m.width }

// Height returns the grid height in nodes.
func (m *Mesh) Height() int { return m.height }

func (m *Mesh) pos(node int) (x, y int) { return node % m.width, node / m.width }

// Hops returns the XY route length in links from node src to the hub.
func (m *Mesh) Hops(src int) int {
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
func (m *Mesh) AccessFrom(core int, now int64) int64 {
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
func (m *Mesh) Utilization(now int64) float64 {
	return m.Stats.utilization(4*len(m.free), now)
}

// ResetStats implements Fabric.
func (m *Mesh) ResetStats() {
	for i := range m.free {
		m.free[i] = [4]int64{}
	}
	m.Stats = Stats{}
}

var _ Fabric = (*Mesh)(nil)
