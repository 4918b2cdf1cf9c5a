package core

import "repro/internal/isa"

// refScanOverlap is the overlap scan as it was before the scan frontier:
// every scan walks the whole window from the head and re-derives every
// mark. It is kept, statement for statement, as the reference the
// two-phase scanOverlap is tested against (scan_diff_test.go); only the
// dead headLatency parameter is gone. Register taint lives in a byte
// table indexed by operand here, not in the core's 64-bit mask.
func refScanOverlap(c *Core, load *isa.Inst) {
	var tr [256]bool
	c.taintLines.Reset()
	if load.HasDst() {
		tr[load.Dst] = true
	}
	scanILine := c.lastILine
	// The head miss holds one outstanding-miss slot; further independent
	// long-latency loads may overlap only while the hardware has slots
	// left (the paper: MLP is exposed "provided that a sufficient number
	// of outstanding long-latency loads are supported").
	outstanding := 1

	fb, fg := c.fbuf, c.flags
	noTaint := c.opts.NoTaint
	hidden := uint64(0)
	for i := 1; i < c.winLen; i++ {
		idx := (c.fhead + i) & (len(fb) - 1)
		in := &fb[idx]
		fl0 := fg[idx&(len(fg)-1)]
		fl := fl0

		if in.Class == isa.Serializing || in.Class.IsSync() {
			break
		}

		if fl&flagIOv == 0 {
			fl |= flagIOv
			if line := in.PC >> 6; line != scanILine {
				scanILine = line
				c.mem.Inst(c.id, in.PC, c.coreTime)
			}
			hidden++
		}

		// Register taint reads are branchless (slot RegNone stays false);
		// the store-line set is consulted only for loads while any store
		// has been tainted.
		dependent := false
		if !noTaint {
			dependent = tr[in.Src1] || tr[in.Src2]
			if !dependent && in.Class == isa.Load && c.taintLines.Len() > 0 {
				dependent = c.taintLines.Find(in.Addr>>6) != nil
			}
		}

		if in.Class.IsBranch() && fl&(flagBrChecked|flagBrOv) == 0 {
			fl |= flagBrChecked
			misp := c.bp.Predict(in)
			if misp {
				fl |= flagBrMisp
			}
			if !dependent {
				// The branch executes underneath the miss. A
				// misprediction redirects the front end: the
				// resolution and refill consume part of the miss
				// shadow; if the shadow is exhausted, nothing
				// further overlaps.
				fl |= flagBrOv
				hidden++
				if misp {
					// Fetch beyond the redirect is wrong-path until
					// the branch resolves: stop the scan (paper,
					// Figure 3 line 40).
					fg[idx&(len(fg)-1)] = fl
					c.ScanBreaks++
					c.OverlapHidden += hidden
					return
				}
			} else if misp {
				// A branch depending on the head load resolves only
				// when the miss returns: everything the front end
				// fetched beyond it was the wrong path, so nothing
				// beyond it overlaps. The branch itself is charged
				// when it reaches the head.
				fg[idx&(len(fg)-1)] = fl
				c.ScanBreaks++
				c.OverlapHidden += hidden
				return
			}
		}

		// An independent load executes underneath the miss (MLP). If it
		// is itself long-latency, instructions depending on it cannot
		// overlap the head miss: dependent long-latency loads serialize
		// their penalties, so the new miss taints its consumers. With
		// all outstanding-miss slots in use the load cannot issue and is
		// left unmarked — it will be charged when it reaches the head.
		taint := dependent
		if in.Class == isa.Load && !dependent && fl&flagDOv == 0 && outstanding < c.maxLL {
			fl |= flagDOv
			hidden++
			res := c.mem.Data(c.id, in.Addr, false, c.coreTime)
			if res.LongLatency() {
				taint = true
				c.OverlapLL++
				outstanding++
			}
		}
		if fl != fl0 {
			fg[idx&(len(fg)-1)] = fl
		}

		// Propagate taint through the dataflow.
		if in.HasDst() {
			tr[in.Dst] = taint
		}
		if in.Class == isa.Store && taint {
			c.taintLines.Insert(in.Addr >> 6)
		}
	}
	c.OverlapHidden += hidden
}
