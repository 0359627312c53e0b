package vm

import "ricjs/internal/bytecode"

// OpStats is the executed-opcode and adjacent-pair histogram collected by
// Options.CollectOpStats (ricbench -opstats). Counts come from the
// dispatch loop itself — the same points the abstract accounting layer
// charges — so they are deterministic for a deterministic program. Pairs
// is a flat [NumOps][NumOps] matrix indexed a*NumOps+b, counting b
// dispatched at exactly the offset a fell through to (taken jumps break
// the chain).
type OpStats struct {
	Ops   [bytecode.NumOps]uint64
	Pairs [bytecode.NumOps * bytecode.NumOps]uint64
}

// Pair returns the count of the adjacent pair (a, b).
func (s *OpStats) Pair(a, b bytecode.Op) uint64 {
	return s.Pairs[int(a)*bytecode.NumOps+int(b)]
}

// OpStats returns the VM's histogram, or nil when collection is disabled.
func (vm *VM) OpStats() *OpStats { return vm.opStats }
