GO ?= go

.PHONY: all tier1 vet fmtcheck build test runcheck race statsmoke lifecyclesoak tenantsoak httpsoak storagesoak reshardsoak chaos bench bench-aa benchsmoke fuzzsmoke report loc clean

all: tier1

# What the soak targets select, named once so that runcheck verifies
# exactly the patterns and package lists the targets run.
RACE_PKGS       := ./internal/chaos/ ./internal/core/ ./internal/rdma/ ./internal/netstack/ ./internal/fabric/ ./internal/telemetry/ ./internal/queue/ ./internal/shard/ ./internal/apps/serve/ ./internal/apps/echo/ ./internal/apps/kv/ ./internal/apps/failover/ ./internal/apps/httpd/ ./internal/simclock/ ./internal/libos/catnip/ ./internal/libos/catmint/ ./internal/libos/catnap/ ./internal/kernel/ ./internal/tenant/ ./internal/nic/ ./internal/uring/ ./internal/workload/ ./cmd/demi-stat/
RACE_RUN        := TestChaosShardedKV
LIFECYCLE_RUN   := TestCrashRestartMidConnection|TestKVFailoverAcrossCrash|TestChaosShardedKVCrashRestart|TestNodeShapesShareLifecycle|TestRingCrashRestart|TestShardedRingSmoke|TestHTTPCrashRestartKeepAlive|TestHTTPHalfCloseFlush|TestRingServerManyConns|TestHTTPLateAnswerAfterFailedRedial
TENANT_RUN      := TestHostileTenantSoak|TestTenantCrashSparesNeighbors
HTTP_RUN        := TestHTTPProductionSoak|TestHTTPSlowClientStallAndRecover|TestHTTPRingSlowClient
STORAGE_PKGS    := ./internal/spdk/ ./internal/offload/ ./internal/libos/catfish/
STORAGE_RUN     := TestChaosPushdownResetMidTraversal|TestFileQueueOpensShareRecords
RESHARD_RUN     := TestReshardUnderLoad|TestChaosReshardUnderCrashRestart|TestSwitchKindLive
CHAOS_RUN       := TestChaos|TestCrashRestart|TestKVFailover
BENCHSMOKE_RUN  := BenchmarkHotPath_Completer|BenchmarkURing_SubmitHarvest|BenchmarkFramePool_SGA|BenchmarkMemQueue|BenchmarkSGAMarshal|BenchmarkWaitAnyFanIn|BenchmarkNetstack_Checksum|BenchmarkNetstack_AckDequeue|BenchmarkNetstack_PollIdleConns|BenchmarkNetstack_PingPong64|BenchmarkCatnip_Echo64|BenchmarkCatnip_Stream16k|BenchmarkCatnip_PollIdleUDP|BenchmarkCatmint_PollIdleQPs|BenchmarkSGA_FramerWrite|BenchmarkSPDK_PushdownGet
BENCHSMOKE_PKGS := . ./internal/core/ ./internal/fabric/ ./internal/netstack/ ./internal/libos/catnip/ ./internal/libos/catmint/ ./internal/sga/ ./internal/spdk/
# Each fuzz target as package:name; go test fuzzes one target at a time.
FUZZ_TARGETS    := ./internal/sga/:FuzzFramer ./internal/netstack/:FuzzChecksum ./internal/netstack/:FuzzIngest ./internal/offload/:FuzzIndexStep
FUZZTIME        ?= 3s

## tier1: the gate every PR must keep green — vet, gofmt, build, full test
## suite, a short -race pass over the concurrency-heavy packages
## (the chaos engine, the user TCP stack, the frame pool and its SGA headers,
## the telemetry instruments, the queues and their qtokens, the cross-shard
## SPSC mesh, the sharded KV workers, the failover backoff machinery,
## the simulated drift clock, the kernel libOS's pump beside a poller and
## the kernel's pipes, epoll and files, the RDMA libOS's transport and
## endpoint locks beside its poller, and every demi-stat rig with its
## pollers and chaos goroutine), a counter-consistency smoke
## (telemetry must conserve frames: TXed == delivered + every
## attributed drop, at the fabric, per NIC, and per stack — including
## across a crash/restart, the crash-time RxFlushed bucket folded in),
## a crash/restart soak (the lifecycle tests repeated under -race: typed
## errors only, listener re-binding, failover recovery, frame
## conservation across the incarnation boundary), an HTTP workload soak
## (production-shaped traffic with slow readers and a mid-run
## crash/restart; stalled readers must become TCP backpressure, not
## unbounded buffering), and a one-iteration smoke of the component
## microbenchmarks so a broken rig fails the gate, and a few seconds of
## every fuzz target. The sharded runtime's
## scaling floor (4 shards >= 2.5x one, monotone growth, no aligned
## request crossing the mesh) is experiment E14's, checked by `test`.
## runcheck goes first: a soak whose pattern matches nothing passes
## vacuously.
tier1: vet fmtcheck build test runcheck race statsmoke lifecyclesoak tenantsoak httpsoak storagesoak reshardsoak benchsmoke fuzzsmoke

vet:
	$(GO) vet ./...

## fmtcheck: every Go file is as gofmt writes it.
fmtcheck:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## runcheck: every alternative of every -run/-bench pattern above names
## at least one test (or benchmark) in the packages its target passes,
## and every listed package has tests, and every fuzz target exists — so a
## deleted or renamed test fails the gate instead of turning a soak into a
## silent no-op.
runcheck:
	@fail=0; \
	check() { \
		for alt in $$(echo "$$1" | tr '|' ' '); do \
			$(GO) test -list "$$alt" $$2 | grep -Eq '^(Test|Benchmark)' || \
				{ echo "runcheck: '$$alt' matches nothing in $$2"; fail=1; }; \
		done; \
	}; \
	for pkg in $(RACE_PKGS) $(STORAGE_PKGS); do check Test $$pkg; done; \
	check '$(RACE_RUN)|$(LIFECYCLE_RUN)|$(TENANT_RUN)|$(HTTP_RUN)|$(STORAGE_RUN)|$(RESHARD_RUN)' .; \
	check '$(CHAOS_RUN)' ./...; \
	check '$(BENCHSMOKE_RUN)' '$(BENCHSMOKE_PKGS)'; \
	for target in $(FUZZ_TARGETS); do \
		$(GO) test -list "^$${target##*:}\$$" $${target%%:*} | grep -qx "$${target##*:}" || \
			{ echo "runcheck: fuzz target '$$target' does not exist"; fail=1; }; \
	done; \
	exit $$fail

race:
	$(GO) test -race -count=1 $(RACE_PKGS)
	$(GO) test -race -count=1 -run '$(RACE_RUN)' .

## statsmoke: run an impaired echo workload with a mid-run crash/restart
## and check that the telemetry counters obey the frame-conservation laws
## end to end (demi-stat -rig chaos, which reads them from
## Cluster.Conservation as the tests do, as it does on every rig). A leak
## anywhere in the datapath bookkeeping fails tier1.
statsmoke:
	$(GO) run ./cmd/demi-stat -rig chaos

## lifecyclesoak: the crash/restart gauntlet, repeated under the race
## detector — node death mid-connection, client failover across the
## outage, the sharded-KV chaos schedule (loss → asymmetric
## partition → crash → restart → heal), one crash/restart of every node
## shape (each width, a tenant's slice, a promoted node), the completion
## ring's crash flush (every ring op pending at crash time resolves to
## one typed ErrLocalReset CQE, counted once; the ring and the servers on
## it outlive three crash/restart cycles untouched; frames conserved
## across the incarnation boundary), and the echo and httpd serve loops
## past their rings' initial size (64 connections, 64 pipelined
## requests; no creep afterwards), and a failover client's late answer
## (a push held past its wait, a failed redial: the next request still
## reads its own answer). Part of tier1.
lifecyclesoak:
	$(GO) test -race -count=2 -run '$(LIFECYCLE_RUN)' .

## tenantsoak: the multi-tenant isolation gauntlet, under the race
## detector — three tenants on one shared NIC, one hostile (flood →
## quota leak → crash mid-burst); victims' KV ops must all succeed
## with p99 within 2x of the quiet baseline, per-tenant frame
## conservation must hold across the crash, and the dead tenant's
## quota must reclaim to zero. Part of tier1.
tenantsoak:
	$(GO) test -race -count=1 -run '$(TENANT_RUN)' .

## httpsoak: the HTTP/1.1 workload gauntlet, under the race detector —
## the production-shaped soak (Zipf popularity, keep-alive churn, slow
## readers, a mid-run crash/restart of the 2-shard server, exact
## request accounting) plus the slow-client stall/recover tests (a
## slow-read phase, and read straight through): a stalled reader must
## park the bounded rx ready list (rx_ready_stalls) and turn into TCP
## backpressure, then drain cleanly once the reader resumes. Part of
## tier1.
httpsoak:
	$(GO) test -race -count=1 -run '$(HTTP_RUN)' .

## storagesoak: the storage-pushdown gauntlet, under the race detector —
## the pushdown engine tests (depth-N traversals, hop-budget and
## runtime-validation kills, the mid-traversal DeviceReset abort with
## its single typed completion), the blob-store recovery suite (torn
## tails, CRC mismatches, chaos resets, injected I/O errors), the
## decoder-agreement property tests (device IndexStep vs host fallback,
## byte-identical on thousands of corrupt blocks), the root chaos
## test that resets the controller mid-traversal over a live catfish
## node, and the file queues of catnap and catfish with one path open
## twice, pushed and popped from four goroutines. Part of tier1.
storagesoak:
	$(GO) test -race -count=1 $(STORAGE_PKGS)
	$(GO) test -race -count=1 -run '$(STORAGE_RUN)' .

## reshardsoak: the elastic-resharding and live-switching gauntlet,
## under the race detector — grow 4→8 and shrink 8→2 under client load
## with zero failed requests, reshard 2→4→3 through loss, an asymmetric
## partition, and a crash/restart (request + frame conservation across
## generations), and a catnap↔catnip switch with an established
## connection carrying in-flight bytes through both transitions, stepped
## to land mid-frame in both directions.
## Part of tier1.
reshardsoak:
	$(GO) test -race -count=1 -run '$(RESHARD_RUN)' .

## chaos: just the fault-injection suite (root soak tests + engine).
chaos:
	$(GO) test -run '$(CHAOS_RUN)' -count=1 ./...

## bench: the repo benchmark — the one place wall clock is measured.
## One workload of BENCHMARK.json per run (W=echo64 by default; add
## `-trace 1` through BENCHFLAGS for the per-layer ladder); results are
## compared as alternated parent/change pairs of this command, never
## against a committed file. bench-aa runs every workload in interleaved
## sets of the same code, to read the host's run-to-run spread.
W ?= echo64
bench:
	$(GO) run ./benchmark -workload $(W) $(BENCHFLAGS)

bench-aa:
	$(GO) run ./benchmark -aa -sets 2 -runs 3

## benchsmoke: one iteration of every component microbenchmark — a qtoken
## round trip, batch submit and harvest, a pool SGA's alloc and Free and
## the memory queue's push and pop (each fails on an allocation), SGA marshalling,
## WaitAny's fan-in, and the netstack's (checksum
## throughput; ACK dequeue cost at 4 KiB and at 128 KiB queued, and
## Stack.Poll beside 1, 1 k and 100 k idle connections, both of which
## must read as a flat line; a 64 B ping-pong between two stacks, whose
## segs/op must read 2), catnip's 64 B echo (segs/op 2 as well) and 16 KiB
## stream (segs/op 12.5, copies/B 4) between two transports, catmint's
## idle server Poll beside 1, 100 and 1 000 idle queue pairs (a flat line
## as well), the SGA stream decoder alone, and a pushdown GET over a
## depth-4 index (hops/op 5, and it fails on an allocation); part of tier1.
benchsmoke:
	$(GO) test -run xxx -bench '$(BENCHSMOKE_RUN)' -benchtime=1x $(BENCHSMOKE_PKGS)

## fuzzsmoke: FUZZTIME of fuzzing for each fuzz target, one worker each —
## the stream decoder (FuzzFramer), the Internet checksum against its
## reference (FuzzChecksum), a receive burst taken in with and without
## the NIC's checksum and segmentation offloads (FuzzIngest), and the
## pushdown index step against the host's decoder (FuzzIndexStep). Part of
## tier1.
fuzzsmoke:
	@for target in $(FUZZ_TARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$${target##*:}\$$" -fuzztime $(FUZZTIME) -parallel 1 $${target%%:*} || exit 1; \
	done

## report: regenerate EXPERIMENTS.md's measured tables.
report:
	$(GO) run ./cmd/demi-bench -md EXPERIMENTS.md

## loc: the three line counts every PR reports — non-test Go outside
## benchmark/, test Go outside benchmark/, and benchmark/.
loc:
	@count() { find . -name '*.go' "$$@" -print0 | xargs -0 cat | wc -l; }; \
	echo "non-test Go outside benchmark/: $$(count -not -name '*_test.go' -not -path './benchmark/*')"; \
	echo "_test.go outside benchmark/:    $$(count -name '*_test.go' -not -path './benchmark/*')"; \
	echo "benchmark/:                     $$(count -path './benchmark/*')"

clean:
	$(GO) clean ./...
