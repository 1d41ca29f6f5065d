.PHONY: all build test bench bench-smoke bench-mq bench-batch bench-blk soak blk-smoke upgrade-smoke bench-upgrade fuzz-smoke check-smoke trace-smoke clean

all: build

build:
	dune build

# Tier-1: every test suite plus the source-invariant lint (lint/dune).
test:
	dune runtest

# Full evaluation: microbenches + Figure-8 netperf sweep, JSON baseline.
bench:
	dune exec bench/main.exe -- --json

# CI smoke: whole test suite plus a quick JSON bench (no Figure-8 sweep).
bench-smoke:
	dune runtest && dune exec bench/main.exe -- quick --json

# Multiqueue sweep: aggregate UDP RX at 1/2/4/8 queues, writes
# BENCH_4.json; exits nonzero unless 4 queues beat 1 queue by >= 2x
# with traffic actually spread across RX queues.
bench-mq:
	dune exec bench/main.exe -- mq

# Batched-datapath sweep in smoke mode: fused copy+checksum micro plus
# the four corner (queues, batch) points, checked against the scaling
# gates (fused ratio, 8q speedup over BENCH_4, irqs/frame, single-frame
# latency); exits nonzero on any gate.  The checked-in BENCH_5.json is
# the full 1/4/8-queue x 1/8/32-batch grid from `batch` without smoke.
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

# Warm-failover latency per storage fault class vs the BENCH_7 cold
# baseline; writes BENCH_8.json and exits nonzero unless the crash
# class fails over >= 2x faster than the cold restart it replaces.
bench-upgrade:
	dune exec bench/main.exe -- upgrade

# Quick storage-soak gate for CI: 40 storage faults, same invariants.
blk-smoke:
	dune exec bench/main.exe -- blk-soak smoke

# Block datapath sweep: durable IOPS over queue depth x read mix on the
# supervised NVMe, plus per-fault-class recovery latency; writes
# BENCH_7.json and exits nonzero unless qd16 scales >= 2x over qd1 and
# every storage fault class recovers inside the soak's outage bound.
bench-blk:
	dune exec bench/main.exe -- blkperf

# Adversarial-interface smoke: the fixed-seed 600-mutation Byzantine
# protocol campaign (every class applied and detected, containment
# invariants held, protocol crash loop quarantined) plus the
# conformance-overhead gate vs BENCH_5; writes BENCH_6.json and exits
# nonzero on any failure.
fuzz-smoke:
	dune exec bench/main.exe -- fuzz

# sud-check smoke: random exploration must find and shrink every seeded
# canary ordering bug (<= 25% of the original counterexample), recorded
# schedules must replay with identical trace hashes across 3 consecutive
# runs (including a supervised fault-domain soak), and the exploration
# throughput is reported; writes BENCH_9.json, exits nonzero on any gate.
check-smoke:
	dune exec bench/main.exe -- check

# Observability smoke: run a traced DMA-violation recovery and require the
# exported JSONL to contain the full uchan rpc -> iommu fault -> supervisor
# detect -> kill -> restart causal chain.
trace-smoke:
	dune exec bin/sudctl.exe -- trace smoke

clean:
	dune clean
