package memory

// The earlier fixed-latency model, kept verbatim as the reference the
// one-bank Banked is compared against (dram_test.go): one bus, busy for a
// transfer per access, then the fixed access latency.

// refDRAM is the main-memory model. A request at time t completes at
//
//	max(t, busFree) + transfer + latency
//
// where transfer = lineSize/busBytes cycles occupies the bus. The model is
// deliberately simple — interval simulation targets system-level studies
// where queueing and bandwidth, not DRAM page policy, are first-order.
type refDRAM struct {
	latency  int64
	transfer int64
	busFree  int64

	Requests   uint64
	StallTotal int64 // cycles spent queueing for the bus
	BusyTotal  int64 // cycles the bus spent transferring
}

// newRefDRAM creates a DRAM model with the given access latency in cycles,
// line size in bytes and bus width in bytes per cycle.
func newRefDRAM(latencyCycles, lineSize, busBytes int) *refDRAM {
	tr := int64(lineSize / busBytes)
	if tr < 1 {
		tr = 1
	}
	return &refDRAM{latency: int64(latencyCycles), transfer: tr}
}

// Access issues a line fetch at time now and returns its total latency in
// cycles (queueing + transfer + access).
func (d *refDRAM) Access(now int64) int64 {
	d.Requests++
	start := now
	if d.busFree > start {
		start = d.busFree
	}
	d.StallTotal += start - now
	d.busFree = start + d.transfer
	d.BusyTotal += d.transfer
	return (start - now) + d.transfer + d.latency
}

// Utilization returns the fraction of cycles the bus was busy up to time
// now (0 if now is 0).
func (d *refDRAM) Utilization(now int64) float64 {
	if now <= 0 {
		return 0
	}
	return float64(d.BusyTotal) / float64(now)
}

// ResetStats clears statistics and pending bus occupancy, for functional-
// warmup runs.
func (d *refDRAM) ResetStats() {
	d.busFree = 0
	d.Requests, d.StallTotal, d.BusyTotal = 0, 0, 0
}
