"""Telemetry subsystem: registry, spans, exporters, and engine wiring."""

import json
import math

import pytest

from repro.engines import GraphWalkerEngine, TeaEngine, Workload
from repro.graph.datasets import load_dataset
from repro.telemetry import (
    BYTES_BUCKETS,
    LATENCY_BUCKETS,
    REPORT_SCHEMA,
    Histogram,
    MetricsRegistry,
    Tracer,
    build_run_report,
    format_stats_table,
    load_run_report,
    parse_prometheus,
    to_prometheus,
    validate_run_report,
    write_run_report,
)
from repro.walks.apps import APPLICATIONS


def _populated(seed_offset=0):
    r = MetricsRegistry()
    r.counter("a", "help a").inc(3 + seed_offset)
    r.counter("b").inc(10)
    r.gauge("g.last").set(5 + seed_offset)
    r.gauge("g.sum", agg="sum").set(2)
    r.gauge("g.max", agg="max").set(7 - seed_offset)
    h = r.histogram("h", "help h")
    for v in (0, 1, 2, 3, 100, 10**12):
        h.observe(v + seed_offset)
    return r


class TestRegistry:
    def test_get_or_create_idempotent(self):
        r = MetricsRegistry()
        assert r.counter("x") is r.counter("x")
        assert r.histogram("h") is r.histogram("h")

    def test_kind_collision_raises(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(ValueError):
            r.gauge("x")
        with pytest.raises(ValueError):
            r.histogram("x")

    def test_counter_and_gauge_values(self):
        r = MetricsRegistry()
        r.inc("c", 4)
        r.inc("c")
        assert r.counter_value("c") == 5
        assert r.counter_value("missing") == 0
        r.set_gauge("g", 1.5)
        assert r.gauge_value("g") == 1.5
        assert r.gauge_value("missing") is None

    def test_merge_associativity(self):
        # (a ⊕ b) ⊕ c  ==  a ⊕ (b ⊕ c) for counters/sum-max gauges/histograms.
        def build(*offsets):
            regs = [_populated(o) for o in offsets]
            return regs

        left = build(0, 1, 2)
        lhs = MetricsRegistry().merge(left[0]).merge(left[1]).merge(left[2])
        right = build(0, 1, 2)
        bc = MetricsRegistry().merge(right[1]).merge(right[2])
        rhs = MetricsRegistry().merge(right[0]).merge(bc)
        assert lhs.snapshot() == rhs.snapshot()

    def test_merge_gauge_aggregations(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("s", agg="sum").set(2)
        b.gauge("s", agg="sum").set(3)
        a.gauge("m", agg="max").set(2)
        b.gauge("m", agg="max").set(9)
        a.gauge("n", agg="min").set(2)
        b.gauge("n", agg="min").set(9)
        a.merge(b)
        assert a.gauge_value("s") == 5
        assert a.gauge_value("m") == 9
        assert a.gauge_value("n") == 2

    def test_merge_incompatible_histogram_schemes(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", **LATENCY_BUCKETS)
        b_h = Histogram("h", **BYTES_BUCKETS)
        b._histograms["h"] = b_h
        with pytest.raises(ValueError, match="incompatible"):
            a.merge(b)


class TestHistogram:
    def test_bucket_boundaries_inclusive_upper(self):
        h = Histogram("h", start=1.0, growth=2.0, buckets=4)
        # bounds: 1, 2, 4, 8; bucket i covers (prev, bound_i]
        h.observe(1.0)   # bucket 0 (<= 1)
        h.observe(1.5)   # bucket 1
        h.observe(2.0)   # bucket 1 (inclusive upper)
        h.observe(8.0)   # bucket 3
        h.observe(9.0)   # overflow
        assert h.counts == [1, 2, 0, 1, 1]
        assert h.count == 5

    def test_zero_and_negative_to_underflow(self):
        h = Histogram("h")
        h.observe(0)
        h.observe(-5)
        assert h.zero_count == 2
        assert sum(h.counts) == 0
        assert h.count == 2

    def test_stats_track_min_max_mean(self):
        h = Histogram("h")
        for v in (1, 2, 3):
            h.observe(v)
        assert h.mean == pytest.approx(2.0)
        assert h.min == 1 and h.max == 3

    def test_latency_scheme_covers_microseconds_to_seconds(self):
        h = Histogram("h", **LATENCY_BUCKETS)
        h.observe(2e-6)
        h.observe(1.0)
        assert sum(h.counts[:-1]) == 2  # neither under- nor overflowed

    def test_invalid_scheme(self):
        with pytest.raises(ValueError):
            Histogram("h", start=0.0)
        with pytest.raises(ValueError):
            Histogram("h", growth=1.0)


class TestSpans:
    def test_nesting_and_ordering(self):
        tracer = Tracer(enabled=True)
        with tracer.span("prepare"):
            with tracer.span("prepare.weights"):
                pass
            with tracer.span("prepare.index_build", structure="hpat"):
                pass
        with tracer.span("walk"):
            pass
        assert [r.name for r in tracer.roots] == ["prepare", "walk"]
        children = tracer.roots[0].children
        assert [c.name for c in children] == ["prepare.weights", "prepare.index_build"]
        assert children[1].attributes["structure"] == "hpat"
        # children are contained in the parent's time interval
        parent = tracer.roots[0]
        for child in children:
            assert parent.start <= child.start
            assert child.end <= parent.end

    def test_start_attribute_does_not_shadow_clock(self):
        tracer = Tracer(enabled=True)
        with tracer.span("s", start=12345) as span:
            pass
        assert span.attributes["start"] == 12345
        assert span.duration < 1.0  # wall clock, not perf_counter - 12345

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x") as span:
            span.set("k", 1)
        assert tracer.roots == []
        assert not tracer.sample_walk(0)

    def test_walk_sampling_one_in_n(self):
        tracer = Tracer(enabled=True, walk_sample_every=4)
        sampled = [i for i in range(12) if tracer.sample_walk(i)]
        assert sampled == [0, 4, 8]
        assert not Tracer(enabled=True, walk_sample_every=0).sample_walk(0)

    def test_phase_seconds_accumulates_reentry(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            pass
        with tracer.span("a"):
            pass
        assert set(tracer.phase_seconds()) == {"a"}

    def test_to_dicts_relative_start(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        doc = tracer.to_dicts()
        assert doc[0]["start"] == 0.0
        assert doc[0]["children"][0]["start"] >= 0.0

    def test_merge_adopts_roots(self):
        a, b = Tracer(), Tracer()
        with a.span("one"):
            pass
        with b.span("two"):
            pass
        a.merge(b)
        assert [r.name for r in a.roots] == ["one", "two"]


class TestPrometheus:
    def test_round_trip(self):
        r = _populated()
        parsed = parse_prometheus(to_prometheus(r))
        assert parsed["tea_a"] == {"type": "counter", "value": 3.0}
        assert parsed["tea_g_last"] == {"type": "gauge", "value": 5.0}
        hist = parsed["tea_h"]
        assert hist["type"] == "histogram"
        assert hist["count"] == 6.0
        assert hist["sum"] == pytest.approx(10**12 + 106)
        # cumulative buckets end at the total observation count
        assert hist["buckets"]["+Inf"] == 6.0
        cumulative = list(hist["buckets"].values())
        assert cumulative == sorted(cumulative)

    def test_name_sanitisation(self):
        r = MetricsRegistry()
        r.counter("walk.steps-done").inc()
        text = to_prometheus(r)
        assert "tea_walk_steps_done 1" in text

    def test_special_float_values_round_trip(self):
        r = MetricsRegistry()
        r.gauge("pos_inf").set(float("inf"))
        r.gauge("neg_inf").set(float("-inf"))
        r.gauge("nan").set(float("nan"))
        text = to_prometheus(r)
        # repr() would emit 'inf'/'nan', which scrapers reject.
        assert "tea_pos_inf +Inf" in text
        assert "tea_neg_inf -Inf" in text
        assert "tea_nan NaN" in text
        parsed = parse_prometheus(text)
        assert parsed["tea_pos_inf"]["value"] == float("inf")
        assert parsed["tea_neg_inf"]["value"] == float("-inf")
        assert math.isnan(parsed["tea_nan"]["value"])

    def test_sanitisation_collisions_stay_distinct(self):
        # 'cache.hits' and 'cache hits' both flatten to tea_cache_hits;
        # the exposition must not silently merge them into one series.
        r = MetricsRegistry()
        r.counter("cache.hits").inc(1)
        r.counter("cache hits").inc(2)
        r.counter("cache-hits").inc(3)
        parsed = parse_prometheus(to_prometheus(r))
        values = {
            name: m["value"] for name, m in parsed.items()
            if m["type"] == "counter"
        }
        assert values == {
            "tea_cache_hits": 1.0,
            "tea_cache_hits_2": 2.0,
            "tea_cache_hits_3": 3.0,
        }

    def test_histogram_round_trip_after_registry_fold(self):
        # The per-worker discipline: private registries folded with
        # merge() must expose the same histogram as one shared registry.
        shards = []
        for offset in range(3):
            r = MetricsRegistry()
            h = r.histogram("lat", "fold me", start=0.001, growth=4.0,
                            buckets=8)
            for i in range(4):
                h.observe(0.0005 * (offset + 1) * (i + 1))
            shards.append(r)
        folded = MetricsRegistry()
        folded.histogram("lat", "fold me", start=0.001, growth=4.0,
                         buckets=8)
        for shard in shards:
            folded.merge(shard)
        direct = MetricsRegistry()
        d = direct.histogram("lat", "fold me", start=0.001, growth=4.0,
                             buckets=8)
        for offset in range(3):
            for i in range(4):
                d.observe(0.0005 * (offset + 1) * (i + 1))
        assert (parse_prometheus(to_prometheus(folded))["tea_lat"]
                == parse_prometheus(to_prometheus(direct))["tea_lat"])


class TestRunReport:
    def _doc(self):
        tracer = Tracer(enabled=True)
        with tracer.span("prepare"):
            pass
        return build_run_report(_populated(), tracer, meta={"engine": "tea"})

    def test_schema_and_validation(self):
        doc = self._doc()
        assert doc["schema"] == REPORT_SCHEMA
        assert validate_run_report(doc) == []

    def test_json_serialisable(self):
        doc = self._doc()
        assert json.loads(json.dumps(doc)) == doc

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda d: d.update(schema="nope"), "schema"),
            (lambda d: d.pop("counters"), "counters"),
            (lambda d: d["counters"].update(bad="x"), "not numeric"),
            (lambda d: d["histograms"]["h"]["counts"].pop(), "length mismatch"),
            (lambda d: d["histograms"]["h"].update(count=999), "sum to count"),
            (lambda d: d["spans"][0].pop("name"), "missing 'name'"),
        ],
    )
    def test_corrupt_documents_are_named(self, mutate, needle):
        doc = self._doc()
        mutate(doc)
        problems = validate_run_report(doc)
        assert problems and any(needle in p for p in problems)

    def test_write_and_load(self, tmp_path):
        path = tmp_path / "report.json"
        doc = write_run_report(path, self._doc())
        assert load_run_report(path) == doc

    def test_load_rejects_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other"}')
        with pytest.raises(ValueError, match="invalid run report"):
            load_run_report(path)

    def test_stats_table_renders_all_sections(self):
        text = format_stats_table(self._doc())
        for fragment in ("counters:", "gauges:", "histograms:", "spans:",
                         "engine=tea", "prepare"):
            assert fragment in text


class TestEngineWiring:
    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("tiny", seed=0)

    def test_every_run_returns_populated_registry(self, graph):
        spec = APPLICATIONS["exponential"]
        engine = TeaEngine(graph, spec)
        result = engine.run(Workload(max_length=10, max_walks=20), seed=1)
        reg = result.registry
        assert reg.counter_value("sampling.steps") == result.counters.steps
        assert reg.counter_value("walk.walks") == 20
        assert reg.gauge_value("memory.bytes") == result.memory.total
        assert "walk.length" in reg
        assert validate_run_report(result.run_report()) == []

    def test_trace_sampling_emits_walk_spans(self, graph):
        spec = APPLICATIONS["exponential"]
        engine = TeaEngine(graph, spec)
        tracer = Tracer(enabled=True, walk_sample_every=8)
        result = engine.run(
            Workload(max_length=10, max_walks=16), seed=1, tracer=tracer
        )
        walk_spans = tracer.find("walk.one")
        assert len(walk_spans) == 2  # walks 0 and 8
        for span in walk_spans:
            assert "length" in span.attributes
            assert span.duration >= 0
        # per-step histograms exist only because walks were traced
        hist = result.registry._histograms["walk.step_seconds"]
        assert hist.count > 0

    def test_figure2_edges_evaluated_ordering(self, graph):
        # The paper's Figure 2 claim on exponential weights: TEA's
        # edges-evaluated-per-step stays near-constant while the
        # baseline's grows with candidate-set size — the registries of
        # two runs must reproduce that ordering.
        spec = APPLICATIONS["exponential"]
        workload = Workload(max_length=20, max_walks=40)
        tea = TeaEngine(graph, spec).run(workload, seed=3)
        gw = GraphWalkerEngine(graph, spec).run(workload, seed=3)

        def edges_per_step(result):
            reg = result.registry
            return (reg.counter_value("sampling.edges_evaluated")
                    / reg.counter_value("sampling.steps"))

        assert edges_per_step(tea) < edges_per_step(gw)

    def test_per_worker_merge_matches_single_registry(self, graph):
        # Per-worker discipline: N registries merged == one shared one.
        spec = APPLICATIONS["exponential"]
        workload = Workload(max_length=10, max_walks=10)
        shared = MetricsRegistry()
        for seed in (0, 1, 2):
            TeaEngine(graph, spec).run(workload, seed=seed, registry=shared)
        folded = MetricsRegistry()
        for seed in (0, 1, 2):
            r = TeaEngine(graph, spec).run(workload, seed=seed)
            folded.merge(r.registry)
        s, f = shared.snapshot(), folded.snapshot()
        assert s["counters"] == f["counters"]
        assert s["histograms"]["walk.length"] == f["histograms"]["walk.length"]


class TestCli:
    def test_walk_stats_and_report_replay(self, tmp_path, capsys):
        from repro.cli import main

        report = tmp_path / "run.json"
        prom = tmp_path / "run.prom"
        assert main([
            "walk", "--dataset", "tiny", "--app", "exponential",
            "--length", "10", "--max-walks", "30", "--stats",
            "--trace-out", str(report), "--prom-out", str(prom),
        ]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out and "spans:" in out
        doc = load_run_report(report)
        assert doc["meta"]["engine"] == "tea-hpat"
        parsed = parse_prometheus(prom.read_text())
        assert parsed["tea_sampling_steps"]["value"] > 0
        assert main(["stats", "--report", str(report)]) == 0
        assert "walk.length" in capsys.readouterr().out

    def test_stats_report_invalid_exits_nonzero(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["stats", "--report", str(bad)]) == 1

    @pytest.mark.parametrize(
        "engine",
        ["tea", "tea-batch", "tea-pat", "tea-its", "tea-ooc-batch",
         "graphwalker", "knightking"],
    )
    def test_all_engines_emit_populated_registry(self, engine, tmp_path):
        from repro.cli import main

        report = tmp_path / f"{engine}.json"
        assert main([
            "walk", "--dataset", "tiny", "--app", "exponential",
            "--length", "8", "--max-walks", "10", "--engine", engine,
            "--trace-out", str(report),
        ]) == 0
        doc = load_run_report(report)
        assert doc["counters"]["sampling.steps"] > 0
        assert doc["counters"]["walk.walks"] == 10
        assert any(doc["spans"])
