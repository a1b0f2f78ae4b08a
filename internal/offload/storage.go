package offload

import "demikernel/internal/spdk"

// IndexLookup returns the lookup program over the block-resident sorted
// index (spdk.BuildIndex): §4.2's one filter function, applied to the
// paper's storage column. A catfish lookup queue runs it on the device,
// in the NVMe completion path, or on the CPU when pushdown is off
// ("library OSes always implement filters directly on supported devices
// but default to using the CPU if necessary"), and the device holds its
// verdicts to the same rules in both places. Like a BPF program checked
// once at load, a node is validated once per installed block: the first
// lookup that reads it keeps the decode on the device's block, and every
// later hop over it, in either place, is a binary search.
func IndexLookup() spdk.Prog { return spdk.IndexProg{} }
