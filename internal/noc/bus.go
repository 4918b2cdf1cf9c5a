package noc

// Bus is the baseline fabric, a shared split-transaction bus: every L1-miss
// transaction (L2 access, coherence broadcast, intervention) takes a fixed
// hop latency and occupies the bus for a configurable number of cycles, so
// co-running cores contend for a finite transaction bandwidth. A
// transaction issued at time t completes its request phase after
// max(t, busFree) - t queueing plus the hop latency; the bus stays busy for
// the occupancy.
type Bus struct {
	hop       int64
	occupancy int64
	busFree   int64

	Transactions uint64
	StallTotal   int64 // cycles spent queueing
	BusyTotal    int64 // cycles the bus was occupied
}

// NewBus creates a bus with the given hop latency (cycles from a core to the
// L2/snoop point) and per-transaction occupancy (address/snoop slot width).
func NewBus(hopLatency, occupancy int) *Bus {
	if occupancy < 1 {
		occupancy = 1
	}
	return &Bus{hop: int64(hopLatency), occupancy: int64(occupancy)}
}

// Access issues a transaction at time now and returns its total latency
// (queueing + hop).
func (b *Bus) Access(now int64) int64 {
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
func (b *Bus) AccessFrom(_ int, now int64) int64 { return b.Access(now) }

// TxCount returns the number of transactions issued.
func (b *Bus) TxCount() uint64 { return b.Transactions }

// StallCycles returns the total cycles transactions spent queueing.
func (b *Bus) StallCycles() int64 { return b.StallTotal }

// HopLatency returns the uncontended transaction latency.
func (b *Bus) HopLatency() int64 { return b.hop }

// Utilization returns the busy fraction of cycles up to now.
func (b *Bus) Utilization(now int64) float64 {
	if now <= 0 {
		return 0
	}
	return float64(b.BusyTotal) / float64(now)
}

// ResetStats clears statistics and pending occupancy.
func (b *Bus) ResetStats() {
	b.busFree = 0
	b.Transactions, b.StallTotal, b.BusyTotal = 0, 0, 0
}
