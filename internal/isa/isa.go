// Package isa defines the micro-ISA shared by the functional workload
// generator and both timing simulators (the detailed out-of-order core and
// the interval model).
//
// The ISA is deliberately small: interval simulation (and the detailed
// baseline it is compared against) only reacts to the *dynamic* properties
// of an instruction stream — instruction class, register dependences,
// effective addresses and branch outcomes — not to opcode semantics. A
// dynamic instruction therefore carries exactly those fields and nothing
// else.
package isa

import "fmt"

// Class identifies the execution class of a dynamic instruction. The class
// determines which functional unit executes it, its execution latency, and
// how the timing models treat it (miss-event source or plain work).
type Class uint8

const (
	// IntALU is a single-cycle integer operation.
	IntALU Class = iota
	// IntMul is an integer multiply.
	IntMul
	// IntDiv is a long-latency integer divide.
	IntDiv
	// FPOp is a floating-point operation.
	FPOp
	// Load reads memory at Addr.
	Load
	// Store writes memory at Addr.
	Store
	// Branch is a conditional or unconditional control transfer.
	Branch
	// Call is a branch that pushes a return address (exercises the RAS).
	Call
	// Return is a branch that pops a return address (exercises the RAS).
	Return
	// Serializing drains the pipeline before executing (e.g. memory
	// barriers, system instructions). Full-system code is rich in these.
	Serializing
	// BarrierArrive is an inter-thread barrier arrival. The multi-core
	// driver blocks the thread until all participants arrive.
	BarrierArrive
	// LockAcquire acquires the lock identified by SyncID, blocking while
	// it is held by another thread.
	LockAcquire
	// LockRelease releases the lock identified by SyncID.
	LockRelease
	numClasses
)

// NumClasses is the number of distinct instruction classes.
const NumClasses = int(numClasses)

// String returns a short mnemonic for the class.
func (c Class) String() string {
	switch c {
	case IntALU:
		return "int"
	case IntMul:
		return "mul"
	case IntDiv:
		return "div"
	case FPOp:
		return "fp"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	case Call:
		return "call"
	case Return:
		return "return"
	case Serializing:
		return "serialize"
	case BarrierArrive:
		return "barrier"
	case LockAcquire:
		return "lock"
	case LockRelease:
		return "unlock"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// IsBranch reports whether the class is any control-transfer instruction.
func (c Class) IsBranch() bool {
	return c == Branch || c == Call || c == Return
}

// IsMem reports whether the class accesses data memory.
func (c Class) IsMem() bool { return c == Load || c == Store }

// IsSync reports whether the class is an inter-thread synchronization
// operation handled by the multi-core driver.
func (c Class) IsSync() bool {
	return c == BarrierArrive || c == LockAcquire || c == LockRelease
}

// Register-file geometry. Registers are identified by small integers;
// RegNone marks an absent operand.
const (
	// NumRegs is the number of architectural registers visible to the
	// dependence tracker (integer + floating point combined).
	NumRegs = 64
	// RegNone marks a missing source or destination operand.
	RegNone = 0xFF
)

// Inst is one dynamic instruction. Values are produced by the functional
// workload generator and consumed, unmodified, by every timing model. It
// carries only what a timing model reads: an instruction's place in its
// thread is its position in the stream, which no model needs.
//
// The field order is layout, not format: the 8-byte fields come first so
// the struct packs into 32 bytes (pinned by TestInstSize), which every
// generator store, batch copy and core load pays for. Everything that
// persists or prints instructions names the fields (trace/io.go, the
// goldens' isatest.Write), and every literal in the tree is keyed.
type Inst struct {
	// PC is the (synthetic) program counter of the instruction.
	PC uint64
	// Addr is the effective virtual address for Load/Store.
	Addr uint64
	// Target is the architectural branch target for taken branches.
	Target uint64
	// SyncID identifies the barrier or lock for synchronization classes.
	SyncID uint16
	// Class is the execution class.
	Class Class
	// Src1 and Src2 are source register ids, or RegNone.
	Src1, Src2 uint8
	// Dst is the destination register id, or RegNone.
	Dst uint8
	// Taken is the architectural outcome for branches.
	Taken bool
}

// HasDst reports whether the instruction writes a register.
func (in *Inst) HasDst() bool { return in.Dst != RegNone }

// String renders the instruction for debugging.
func (in *Inst) String() string {
	switch {
	case in.Class.IsMem():
		return fmt.Sprintf("%s pc=%#x addr=%#x dst=%d src=(%d,%d)",
			in.Class, in.PC, in.Addr, in.Dst, in.Src1, in.Src2)
	case in.Class.IsBranch():
		return fmt.Sprintf("%s pc=%#x taken=%t target=%#x src=(%d,%d)",
			in.Class, in.PC, in.Taken, in.Target, in.Src1, in.Src2)
	case in.Class.IsSync():
		return fmt.Sprintf("%s id=%d", in.Class, in.SyncID)
	default:
		return fmt.Sprintf("%s pc=%#x dst=%d src=(%d,%d)",
			in.Class, in.PC, in.Dst, in.Src1, in.Src2)
	}
}
