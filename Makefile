.PHONY: all build test bench bench-smoke bench-mq bench-batch bench-blk soak blk-smoke upgrade-smoke bench-upgrade fuzz-smoke check-smoke trace-smoke perfbench-smoke clean

all: build

build:
	dune build

# Tier-1: every test suite plus the source-invariant lint (lint/dune).
test:
	dune runtest

# Full evaluation: every figure, microbenches, Figure-8 netperf sweep and
# the tracer-overhead guard; writes bench/out/suite.json.  Every mode
# below writes bench/out/MODE.json on a full run and nothing on a smoke
# run, and gates against the read-only bench/baseline.json.
bench:
	dune exec bench/main.exe

# CI smoke: whole test suite plus the default suite without the Figure-8
# sweep (writes nothing).
bench-smoke:
	dune runtest && dune exec bench/main.exe -- smoke

# Multiqueue sweep: aggregate UDP RX at 1/2/4/8 queues; exits nonzero
# unless 4 queues beat 1 queue by >= 2x with traffic actually spread
# across RX queues.
bench-mq:
	dune exec bench/main.exe -- mq

# Batched-datapath sweep in smoke mode: fused copy+checksum micro plus
# the four corner (queues, batch) points, checked against the scaling
# gates (fused ratio, 8q speedup over the baseline's 4q mq.kpps,
# irqs/frame, single-frame latency); exits nonzero on any gate.  `batch` without smoke runs the
# full 1/4/8-queue x 1/8/32-batch grid.
bench-batch:
	dune exec bench/main.exe -- batch smoke

# Supervision soak: per-fault-class recovery latencies, then a fixed-seed
# storm of ~200 faults under live traffic plus a forced crash loop, the
# storage soak (200 injected storage faults under synchronous I/O with
# the crash-consistency invariant checked at every recovery), and the
# Byzantine protocol fuzz.  Exits nonzero if any containment invariant
# breaks.
soak:
	dune exec bench/main.exe -- soak
	dune exec bench/main.exe -- blk-soak
	dune exec bench/main.exe -- fuzz
	dune exec bench/main.exe -- upgrade-soak
	dune exec bench/main.exe -- check

# Warm-standby gate: 20 fixed-seed upgrade+fault interleavings (live
# upgrades, forced failovers, poisoned standbys, crashes racing the
# upgrade drain) under synchronous I/O; exits nonzero if any acked
# write is lost or the supervisor fails to return to Running.
upgrade-smoke:
	dune exec bench/main.exe -- upgrade-soak

# Warm-failover latency per storage fault class vs the cold outages in
# the baseline (its recovery.outage_ns rows); exits nonzero unless the
# crash class fails over >= 2x faster than the cold restart it replaces.
bench-upgrade:
	dune exec bench/main.exe -- upgrade

# Quick storage-soak gate for CI: 40 storage faults, same invariants.
blk-smoke:
	dune exec bench/main.exe -- blk-soak smoke

# Block datapath sweep: durable IOPS over queue depth x read mix on the
# supervised NVMe, plus per-fault-class recovery latency; exits nonzero
# unless qd16 scales >= 2x over qd1 and every storage fault class
# recovers inside the soak's outage bound.
bench-blk:
	dune exec bench/main.exe -- blkperf

# Adversarial-interface smoke: the fixed-seed 600-mutation Byzantine
# protocol campaign (every class applied and detected, containment
# invariants held, protocol crash loop quarantined) plus the
# conformance-overhead gate vs the baseline's 8q/batch=32 batch.kpps;
# exits nonzero on any failure.
fuzz-smoke:
	dune exec bench/main.exe -- fuzz

# sud-check smoke: random exploration must find and shrink every seeded
# canary ordering bug (<= 25% of the original counterexample), recorded
# schedules must replay with identical trace hashes across 3 consecutive
# runs (including a supervised fault-domain soak), and the exploration
# throughput is reported; exits nonzero on any gate.
check-smoke:
	dune exec bench/main.exe -- check

# Observability smoke: run a traced DMA-violation recovery and require the
# exported JSONL to contain the full uchan rpc -> iommu fault -> supervisor
# detect -> kill -> restart causal chain.
trace-smoke:
	dune exec bin/sudctl.exe -- trace smoke

# Benchmark smoke: each perfbench workload at --seconds 1 (about 7 s in
# all).  Fails on any nonzero exit: an output check, the
# CPU-ledger closure or a determinism check.
perfbench-smoke:
	for w in net-udp-rx net-tcp-stream blk-mixed fault-explore; do \
	  python3 perfbench/run.py --workload $$w --seed 7 --seconds 1 --trace 0 || exit 1; \
	done

clean:
	dune clean
