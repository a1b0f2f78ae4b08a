// Package experiments reproduces every figure, table, and quantitative
// claim of the paper as a runnable experiment. The paper (HotOS '19) has
// no evaluation section, so the reproduction targets are the two
// architecture figures, the syscall-interface figure, the accelerator
// taxonomy table, and each measurable claim in the text; DESIGN.md maps
// each experiment ID to its source.
//
// Every experiment returns tables of results plus named shape checks —
// the "who wins, by roughly what factor" assertions that must hold for
// the reproduction to count. cmd/demi-bench renders them into
// EXPERIMENTS.md; the test suite asserts every check.
package experiments

import (
	"fmt"

	demi "demikernel"
	"demikernel/internal/apps/echo"
	"demikernel/internal/metrics"
	"demikernel/internal/simclock"
)

// Check is one pass/fail shape assertion with human-readable detail.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Result is one experiment's output.
type Result struct {
	Tables []*metrics.Table
	Checks []Check
}

// check appends a shape assertion to the result.
func (r *Result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// Experiment is one entry in the reproduction index.
type Experiment struct {
	ID     string // E1..E13, matching DESIGN.md
	Title  string
	Source string // figure/table/section of the paper
	Claim  string // the sentence being reproduced
	Run    func(seed int64) (*Result, error)
}

// All lists every experiment in index order.
var All = []Experiment{
	{
		ID:     "E1",
		Title:  "Kernel vs kernel-bypass data path",
		Source: "Figure 1",
		Claim:  "kernel-bypass accelerators remove the OS kernel from the I/O data path; per-I/O latency drops by the syscall+copy+kernel-stack cost",
		Run:    runE1,
	},
	{
		ID:     "E2",
		Title:  "Accelerator taxonomy and the libOS software gap",
		Source: "Table 1, §2",
		Claim:  "device classes provide different OS feature subsets; the libOS must supply the rest in software",
		Run:    runE2,
	},
	{
		ID:     "E3",
		Title:  "Zero-copy vs POSIX copy",
		Source: "§3.2",
		Claim:  "copying a 4KB page takes ~1µs on a 4GHz CPU, adding ~50% overhead to a 2µs Redis request",
		Run:    runE3,
	},
	{
		ID:     "E4",
		Title:  "Stream vs atomic queue units",
		Source: "§3.2",
		Claim:  "with pipes Redis re-inspects partial requests while a ready request waits; queue pops return only whole elements",
		Run:    runE4,
	},
	{
		ID:     "E5",
		Title:  "Wakeup semantics: qtokens vs epoll",
		Source: "§4.4",
		Claim:  "wait wakes exactly one thread on each pop completion, so there are never wasted wake ups",
		Run:    runE5,
	},
	{
		ID:     "E6",
		Title:  "POSIX-preserving user stacks",
		Source: "§6",
		Claim:  "mTCP-style stacks impose POSIX-emulation overhead; 'its latency was higher than the Linux kernel's'",
		Run:    runE6,
	},
	{
		ID:     "E7",
		Title:  "Transparent memory registration + free-protection",
		Source: "§4.5",
		Claim:  "the libOS registers whole regions and defers frees of in-flight buffers, vs explicit per-buffer registration",
		Run:    runE7,
	},
	{
		ID:     "E8",
		Title:  "Filter offload and cache steering",
		Source: "§4.2, §4.3",
		Claim:  "filters run on the device, cutting host CPU, and steer I/O to CPUs by application keys to improve cache utilisation",
		Run:    runE8,
	},
	{
		ID:     "E9",
		Title:  "Portability: one application, three libOSes",
		Source: "§4.1, §5.1",
		Claim:  "the same application runs unmodified across kernel, DPDK, and RDMA libOSes",
		Run:    runE9,
	},
	{
		ID:     "E10",
		Title:  "Sort queues for application priorities",
		Source: "§4.3",
		Claim:  "a pop from the sorted queue returns the element with the highest priority",
		Run:    runE10,
	},
	{
		ID:     "E11",
		Title:  "SGA framing over a lossy stream",
		Source: "§5.2",
		Claim:  "the libOS inserts framing atop TCP and the receiver recreates the scatter-gather array exactly",
		Run:    runE11,
	},
	{
		ID:     "E12",
		Title:  "Accelerator-specific storage layout",
		Source: "§5.3",
		Claim:  "a single-application log layout avoids general-purpose file-system overhead (journaling, page-cache management)",
		Run:    runE12,
	},
	{
		ID:     "E13",
		Title:  "RDMA receive-buffer provisioning",
		Source: "§2",
		Claim:  "allocating too few buffers causes communication to fail; too many wastes memory; the libOS sizes them instead",
		Run:    runE13,
	},
	{
		ID:     "E14",
		Title:  "Multi-core scale-out: RSS-sharded workers",
		Source: "§3.1",
		Claim:  "kernel-bypass servers scale by flow-level parallelism: RSS partitions connections across cores and nothing on the per-request path is shared",
		Run:    runE14,
	},
	{
		ID:     "E15",
		Title:  "Multi-tenant NIC protection",
		Source: "§3, §7",
		Claim:  "untrusting applications share one kernel-bypass NIC; the control plane — flow steering, TX scheduling, and memory quotas — enforces isolation the data path no longer can",
		Run:    runE15,
	},
	{
		ID:     "E16",
		Title:  "Batched submission and a completion ring vs per-op calls",
		Source: "§3.2, §4.4",
		Claim:  "the OS control plane leaves the data path, which in a library OS is a function call away: apps submit batches of operations in one call and harvest tagged completions from a ring, with no token per op and one transport pump per batch",
		Run:    runE16,
	},
	{
		ID:     "E17",
		Title:  "A real web workload on the bypass path: HTTP/1.1 over catnip queues",
		Source: "§2, §4",
		Claim:  "applications run directly on kernel-bypass queues, but the libOS still owes them the OS's end of TCP: a client that stops reading must become flow-control backpressure — bounded buffering and a reopenable window — not unbounded memory or a dead connection",
		Run:    runE17,
	},
	{
		ID:     "E18",
		Title:  "Storage pushdown: BPF-style compute in the NVMe completion path",
		Source: "§4.2, §5.3",
		Claim:  "the OS keeps protection while applications push logic to the device: a sandboxed lookup runs in the completion path, so a depth-N index GET costs one app↔libOS crossing instead of N+1, with a CPU fallback that returns byte-identical results",
		Run:    runE18,
	},
	{
		ID:     "E19",
		Title:  "Elastic resharding and live libOS switching",
		Source: "§3.1, §5",
		Claim:  "the OS control plane can repartition a bypass server's cores and swap its libOS at run time: keys migrate and RSS re-steers under load without failing a request, and a kernel↔bypass switch keeps every established connection while the syscall tax appears or disappears",
		Run:    runE19,
	},
	{
		ID:     "A1",
		Title:  "Ablation: syscall price",
		Source: "ablation of §3.2",
		Claim:  "the kernel's I/O abstraction is as much a barrier as the kernel itself: the bypass win survives free syscalls",
		Run:    runA1,
	},
	{
		ID:     "A2",
		Title:  "Ablation: copy price (memory bandwidth)",
		Source: "ablation of §3.2",
		Claim:  "the zero-copy advantage scales with the cost of a byte and persists at high memory bandwidth",
		Run:    runA2,
	},
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared harness plumbing ---

// spawnPair puts two nodes of one libOS kind on c: host 1, which serves,
// and host 2, which dials. cfg's Host is overwritten.
func spawnPair(c *demi.Cluster, kind demi.Kind, cfg demi.NodeConfig) (srvNode, cliNode *demi.Node, err error) {
	cfg.Host = 1
	if srvNode, err = c.Spawn(kind, demi.WithConfig(cfg)); err != nil {
		return nil, nil, err
	}
	cfg.Host = 2
	cliNode, err = c.Spawn(kind, demi.WithConfig(cfg))
	return srvNode, cliNode, err
}

// EchoRig is a connected echo client/server pair: the experiments' rig and
// `demi-stat -rig echo|ring|chaos`'s.
type EchoRig struct {
	Client  *echo.Client
	Close   func()
	cluster *demi.Cluster
	server  *echo.Server
	srvNode *demi.Node
	cliNode *demi.Node
}

// newEchoRig spawns a pair of kind nodes on c, each charging extra per
// packet, and stages echo between them (StageEcho).
func newEchoRig(c *demi.Cluster, kind demi.Kind, extra simclock.Lat) (*EchoRig, error) {
	srvNode, cliNode, err := spawnPair(c, kind, demi.NodeConfig{PerPacketExtra: extra})
	if err != nil {
		return nil, err
	}
	return StageEcho(c, srvNode, cliNode)
}

// StageEcho serves echo on srvNode:7, charging the model's application
// cost per request, and dials it from cliNode.
func StageEcho(c *demi.Cluster, srvNode, cliNode *demi.Node) (*EchoRig, error) {
	srv, stopSrv, err := echo.Serve(srvNode.LibOS, 7, c.Model.AppRequestNS)
	if err != nil {
		return nil, err
	}
	cli, stopCli, err := echo.Dial(cliNode.LibOS, c.AddrOf(srvNode, 7))
	if err != nil {
		stopSrv()
		return nil, err
	}
	return &EchoRig{
		Client:  cli,
		Close:   func() { stopCli(); stopSrv() },
		cluster: c,
		server:  srv,
		srvNode: srvNode,
		cliNode: cliNode,
	}, nil
}

// MeasureEcho collects n round trips of size-byte payloads, each charged
// the model's application cost.
func (r *EchoRig) MeasureEcho(size, n int) (*metrics.Histogram, error) {
	payload := make([]byte, size)
	var h metrics.Histogram
	for i := 0; i < n; i++ {
		cost, err := r.Client.RTT(payload, r.cluster.Model.AppRequestNS)
		if err != nil {
			return nil, fmt.Errorf("rtt %d: %w", i, err)
		}
		h.Record(cost)
	}
	return &h, nil
}
