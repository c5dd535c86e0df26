# Convenience targets for the TEA reproduction.

PYTHON ?= python

.PHONY: install test stats-smoke scaling-smoke ooc-smoke chaos-smoke \
        telemetry-smoke bench-history-smoke kernel-smoke serve-smoke \
        ingest-smoke corpus-smoke lint-clocks bench bench-quick bench-e2e \
        loc examples lint clean

install:
	$(PYTHON) setup.py develop

# Tier-1: every gate below is a selection of these tests, so `make test`
# runs each check exactly once.
test: lint-clocks
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# The *-smoke targets run one subsystem's tier-1 gates by themselves
# (docs/robustness.md maps each check to its test id;
# tests/test_docs.py asserts every id below still collects).
SMOKE = PYTHONPATH=src $(PYTHON) -m pytest -q -p no:cacheprovider

# Sampling kernels: with a cc on PATH `auto` and `c` resolve to the
# compiled backend with its fused hop and its index build (a failure,
# not a skip; without one, numpy plus a fallback note), the build's
# load-time self-test passes and refuses a builder one bit off or passes
# that did not bind, every product index (preprocess, its arrays read
# back copied and mapped, engine prepare, the engine a forked parallel
# worker inherits) binds the fused hop, an out-of-core run draws through
# the compiled members on every call and their self-test refuses members
# that did not bind or are one bit off, a run's seeds come from the
# compiled draw once per run, equal to Generator.integers on every numpy
# bit generator (end state included), and its self-test refuses a draw
# without the redraw or a binder that drops the generator's lock,
# node2vec's static adjacency is
# one key array on the graph (the in-memory, out-of-core, parallel and
# scalar engines read the same object, and a prepared parallel engine
# holds it before its pool forks), the walk engines hold only what the
# walk reads (no batch, out-of-core, parallel, with_spec or GNN-sampler
# engine holds an auxiliary index or a static-weight array, the graph
# has no negated time copy, and only TeaEngine(use_aux_index=True)
# builds the index, still saving probes; GraphWalker, KnightKing and
# CTDNE build the graph's candidate-search caches in prepare;
# memory_report counts every graph cache built), and the structural
# constant-calls gate (one fused node2vec run makes the same number of
# Python-level calls at 16 and at 2 048 lanes, at p=q=1 and at p=4,
# q=1/4).
kernel-smoke:
	$(SMOKE) "tests/test_kernels.py::TestBackendRegistry" \
		"tests/test_build_kernels.py::TestBuildSelfTest" \
		"tests/test_kernels.py::TestFusedHopBinds" \
		"tests/test_kernels.py::TestOneStaticKeyArray" \
		"tests/test_ooc_kernel.py::TestOocDrawBinds" \
		"tests/test_ooc_kernel.py::TestOocSelfTest" \
		"tests/test_kernels.py::TestCompiledSeeds" \
		"tests/test_kernels.py::TestSeedsSelfTest" \
		"tests/test_batch_engine.py::TestHeldArrays" \
		"tests/test_kernel_passes.py::TestConstantCalls"

# Telemetry end to end: `repro walk --stats` writes the JSON run report
# and Prometheus text, `repro stats --report` replays and validates it
# (nonzero exit on schema violations), for every engine.
stats-smoke:
	$(SMOKE) "tests/test_telemetry.py::TestCli"

# Parallel executor: bit-determinism across worker counts and backends
# (inline, serial, thread and process walks and counters equal, also
# after an injected worker crash is retried, and at every frontier slice
# width: 1, 7, 64 lanes and one slice), process workers walk the
# engine they fork from (no /dev/shm segment, the parent's engine object,
# a sub-5 ms initializer), a dropped engine releases its pool, the
# default worker count follows the CPU affinity mask, telemetry
# conservation (per-worker steps fold to the serial total), warm-pool
# reuse (a second run pays zero pool startup), and bounded dispatch (a
# warm 2-worker run spends at most 25 ms per chunk outside chunk
# execution over inline — an absolute cost, so it holds on a 1-core or an
# oversubscribed host), and the chunk plan (without --chunk-size, the
# fewest chunks of at most one frontier slice, equal to within one lane,
# numbering a multiple of the workers; cold and warm runs plan the same
# chunks, and a 128-lane run_lanes on 2 workers is 2 x 64 on every call),
# and BatchTeaEngine's own slice threads (walks, counters and frontier
# lane totals equal at 1, 2 and 7 threads; out-of-core slices stay
# sequential; a threaded round, then thread and forked pools, no hang).
scaling-smoke:
	$(SMOKE) "tests/test_parallel_engine.py::TestDeterminism" \
		"tests/test_parallel_engine.py::TestSlicePlan" \
		"tests/test_parallel_engine.py::TestOneDeterminismClass::test_run_parallel_and_run_lanes_agree" \
		"tests/test_parallel_engine.py::TestOneDeterminismClass::test_every_frontier_width_walks_the_same_bits" \
		"tests/test_parallel_engine.py::TestEndToEnd::test_validation" \
		"tests/test_parallel_engine.py::TestEndToEnd::test_default_workers_follow_cpu_affinity" \
		"tests/test_parallel_engine.py::TestTelemetryFold" \
		"tests/test_parallel_engine.py::TestDeterminismMatrix" \
		"tests/test_parallel_engine.py::TestThreadedSlicesThenPools" \
		"tests/test_batch_engine.py::TestSliceThreads"

# Out-of-core: scalar-vs-batched step parity at max_length=1, coalescing
# (strictly fewer backing reads), fixed-seed determinism, synchronous
# reads (run and run_lanes start no thread), the structural
# width-independence gate (one frontier iteration makes the same number
# of Python-level calls at 1k and at 16k lanes: no per-range loops), and
# the compiled draw bit-identical to the numpy lockstep (walks, stream
# counters, costs, reads and cache statistics) on the trunk-size x pool
# grid, the fused step (ooc_step) identical to the call sequence it fuses
# and bound once per iteration exactly where it should be, the same on 1,
# 2 and 7 threads (bad rows reported as inline, no thread left behind, a
# forked pool after it), its load-time self-test (refusing a step whose
# ranges join out of order), and the compiled pool passes identical to
# FramePool's numpy ones (and both to the per-block oracle) under
# generated read schedules, turning whole ranges away.
ooc-smoke:
	$(SMOKE) "tests/test_ooc_batch.py::TestParityAndDeterminism" \
		"tests/test_ooc_batch.py::TestSynchronousReads" \
		"tests/test_ooc_batch.py::TestWidthIndependence" \
		"tests/test_ooc_kernel.py::TestCompiledParity" \
		"tests/test_ooc_kernel.py::TestOocDrawBinds::test_one_compiled_call_per_iteration" \
		"tests/test_ooc_kernel.py::TestOocSelfTest::test_step_passes" \
		"tests/test_ooc_kernel.py::TestOocSelfTest::test_refuses_a_step_one_edge_off" \
		"tests/test_ooc_kernel.py::TestOocSelfTest::test_refuses_a_step_whose_ranges_join_out_of_order" \
		"tests/test_ooc_kernel.py::TestStepThreads" \
		"tests/test_frame_pool.py::TestCompiledPoolPasses" \
		"tests/test_frame_pool.py::TestWholeRangeAdmission"

# Resilience: the tier-1 classes that inject every failure mode (worker
# crash, hang, transient I/O, trunk corruption, mid-batch streaming
# failure, WAL torn at every byte offset, failed WAL append, failed
# checkpoint write) and assert the contracts: retries keep results
# bit-identical, degradation is recorded, scrub locates corruption,
# rollbacks leave no residue, recovery walks like the never-crashed engine.
chaos-smoke:
	$(SMOKE) "tests/test_resilience.py::TestWorkerSupervision" \
		"tests/test_resilience.py::TestChecksums" \
		"tests/test_resilience.py::TestStreamingRollback" \
		"tests/test_wal.py::TestCrashRecovery" \
		"tests/test_streaming.py::TestDurability"

# Observability: profiled root phase times within 10% of wall with <5%
# self-measured overhead, hot-loop phases charged, collapsed stacks
# parse, spans and profile rows from one frame stack agree, and a
# 4-worker process-backend run whose events all share one run_id
# (including events shipped back from worker processes).
telemetry-smoke:
	$(SMOKE) "tests/test_profiler.py::TestEngineProfiles" \
		"tests/test_profiler.py::TestCliProfile" \
		"tests/test_telemetry.py::TestEngineWiring::test_trace_and_profile_agree" \
		"tests/test_telemetry.py::TestEngineWiring::test_attached_recorder_reused_across_runs" \
		"tests/test_telemetry.py::TestEngineWiring::test_default_run_neither_calibrates_nor_samples_rusage" \
		"tests/test_events.py::TestEventLog" \
		"tests/test_events.py::TestRunCorrelation"

# Bench history: `repro bench compare` exits 1 on an injected walk_s
# regression and 0 on a clean re-run; baseline pinning, trend table and
# metric-direction heuristics.
bench-history-smoke:
	$(SMOKE) "tests/test_bench_history.py::TestDirections" \
		"tests/test_bench_history.py::TestCompare" \
		"tests/test_bench_history.py::TestCli"

# Serving, against real daemons on loopback ports: a parked request is
# handed out without waiting, staged batches are bit-identical to solo
# runs, 429s and telemetry conservation when the parked list fills,
# stage histograms on /metrics, one serving thread, a bounded shutdown,
# and the protocol fuzzer (never a 5xx, pipelined answers in order, a
# slow reader never stalls the loop). In the session the daemon serves
# from, engines that differ only in β share one index (the graph, index
# and candidate sizes are the same objects, walks equal an engine built
# alone on every engine kind, a process sibling gets a pool of its own),
# a shared index is counted once, and node2vec's static keys equal
# np.unique of both edge directions.
serve-smoke:
	$(SMOKE) "tests/test_serve_batching.py::TestTake" \
		"tests/test_serve_batching.py::test_requests_parked_during_a_batch_coalesce_into_the_next" \
		"tests/test_serve_batching.py::test_stage_histograms_are_served_on_metrics" \
		"tests/test_serve_batching.py::test_one_serving_thread" \
		"tests/test_serve_parity.py::test_http_staged_batch_matches_solo" \
		"tests/test_serve_stress.py::test_stress_conservation_and_run_ids" \
		"tests/test_serve_protocol.py" \
		"tests/test_session.py::TestIndexSharing" \
		"tests/test_temporal_graph.py::TestStaticAdjacency::test_keys_match_unique_and_a_set_oracle"

# Durable ingest: bulk columnar ingest bit-identical to batched ingest,
# pinned epochs byte-stable under concurrent ingest, WAL close/reopen and
# post-checkpoint recovery bit-identical (the forest's update_work and
# nbytes equal to their recorded constants, the store scrubbing clean),
# and an epoch packed once by its first read burst, never by publish or
# recovery.
ingest-smoke:
	$(SMOKE) "tests/test_streaming.py::TestBulkIngest" \
		"tests/test_streaming.py::TestEpochIsolation" \
		"tests/test_streaming.py::TestDurability" \
		"tests/test_epoch_pack.py::TestReadSideBookkeeping"

# Walk corpora: every engine's corpus read back equals its recorded
# paths in both formats, blocks of 1,024 walks, damaged .twalks and text
# files refused with GraphFormatError (a v1 file by its version), the
# corpus CLI, and the Hypothesis round trip against WalkPath.
corpus-smoke:
	$(SMOKE) "tests/test_walk_sink.py" \
		"tests/test_cli.py::TestCorpus" \
		"tests/test_properties_extended.py::test_walk_sink_roundtrip"

# Clock discipline: every module under src/repro except the clock itself
# must take time from repro.telemetry.clock, never raw
# time.time()/perf_counter()/monotonic() (tier-1 runs it too:
# tests/test_docs.py::TestClockLint).
lint-clocks:
	$(PYTHON) tools/lint_clocks.py

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Smaller datasets + fewer walks: a fast sanity pass.
bench-quick:
	REPRO_BENCH_SCALE=0.25 REPRO_BENCH_R=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# The gated end-to-end benchmark (BENCHMARK.json), shortened: every
# workload once with all its correctness checks. Timings from a --quick
# pass are not comparable; for numbers run `python3 -m bench_e2e run`.
bench-e2e:
	python3 -m bench_e2e run --seed 1 --quick
	@echo "bench-e2e: checks only — not for numbers"

# Source size, the number simplification PRs are judged on: lines per
# src/repro package (subpackages included), the top-level modules, and
# the total as the last line.
loc:
	@for init in src/repro/*/__init__.py; do \
		pkg=$${init%/__init__.py}; \
		printf '%7d %s\n' $$(find $$pkg -name '*.py' -exec cat {} + | wc -l) $$pkg; \
	done
	@printf '%7d %s\n' $$(cat src/repro/*.py | wc -l) 'src/repro/*.py'
	@find src -name '*.py' | xargs wc -l | tail -1

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis \
	       bench_results .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
