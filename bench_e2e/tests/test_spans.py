import json
import threading

import pytest

from bench_e2e.spans import NullRecorder, Recorder


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def test_parent_and_trace_ids(clock):
    rec = Recorder(clock)
    with rec.span("round") as first:
        with rec.span("engines.run") as child:
            with rec.span("kernels.draw") as grandchild:
                pass
    with rec.span("round") as second:
        pass
    assert first["parent"] is None and second["parent"] is None
    assert child["parent"] == first["id"]
    assert grandchild["parent"] == child["id"]
    assert first["trace"] == child["trace"] == grandchild["trace"]
    assert second["trace"] != first["trace"]
    assert [s["id"] for s in rec.spans] == [0, 1, 2, 3]


def test_self_time_is_span_minus_direct_children(clock):
    rec = Recorder(clock)
    with rec.span("round") as root:
        clock.tick(1.0)
        with rec.span("a") as a:
            clock.tick(2.0)
            with rec.span("b") as b:
                clock.tick(4.0)
        clock.tick(8.0)
    own = rec.self_times()
    assert own[root["id"]] == pytest.approx(9.0)   # 15 - a's 6
    assert own[a["id"]] == pytest.approx(2.0)      # 6 - b's 4
    assert own[b["id"]] == pytest.approx(4.0)
    assert sum(own.values()) == pytest.approx(root["end"] - root["start"])
    assert rec.self_time_by_name() == {"round": pytest.approx(9.0),
                                       "a": pytest.approx(2.0),
                                       "b": pytest.approx(4.0)}
    assert rec.coverage("round") == pytest.approx(6.0 / 15.0)
    assert rec.coverage("absent") == 0.0


def test_derived_span_is_a_child_of_the_open_span(clock):
    rec = Recorder(clock)
    with rec.span("engines.run") as run:
        clock.tick(5.0)
        walk = rec.add("engines.walk", run["start"] + 1.0, 3.0, steps=7)
    assert walk["parent"] == run["id"] and walk["derived"] is True
    assert walk["end"] - walk["start"] == pytest.approx(3.0)
    assert walk["counts"] == {"steps": 7}
    assert rec.self_times()[run["id"]] == pytest.approx(2.0)


def test_counts_are_recorded_at_the_boundary(clock):
    rec = Recorder(clock)
    with rec.span("core.read_batch", ranges=3) as sp:
        sp["counts"]["hits"] = 2
    assert rec.spans[0]["counts"] == {"ranges": 3, "hits": 2}


def test_span_closes_when_the_body_raises(clock):
    rec = Recorder(clock)
    with pytest.raises(ValueError):
        with rec.span("round"):
            clock.tick(1.0)
            raise ValueError
    assert rec.spans[0]["end"] == 1.0
    with rec.span("next") as sp:
        pass
    assert sp["parent"] is None


def test_threads_have_their_own_stack():
    rec = Recorder()
    inside = threading.Barrier(2, timeout=10)

    def client(name):
        with rec.span(name):
            inside.wait()
            with rec.span(name + ".child"):
                pass

    threads = [threading.Thread(target=client, args=(n,)) for n in ("c0", "c1")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    by_name = {s["name"]: s for s in rec.spans}
    for name in ("c0", "c1"):
        assert by_name[name]["parent"] is None
        assert by_name[name + ".child"]["parent"] == by_name[name]["id"]
        assert by_name[name + ".child"]["trace"] == by_name[name]["trace"]
    assert by_name["c0"]["trace"] != by_name["c1"]["trace"]
    assert sorted(s["id"] for s in rec.spans) == [0, 1, 2, 3]


def test_write_jsonl_appends_with_self_time_and_stamp(clock, tmp_path):
    rec = Recorder(clock)
    with rec.span("round"):
        clock.tick(1.0)
        with rec.span("engines.run"):
            clock.tick(2.0)
    path = tmp_path / "spans.jsonl"
    assert rec.write_jsonl(path, workload="w", home=True) == 2
    assert rec.write_jsonl(path, workload="w", home=True) == 2
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 4
    assert lines[0]["name"] == "round" and lines[0]["self_s"] == pytest.approx(1.0)
    assert lines[1]["parent"] == lines[0]["id"] and lines[1]["workload"] == "w"


def test_null_recorder_times_but_keeps_nothing(clock):
    rec = NullRecorder(clock)
    with rec.span("round") as sp:
        clock.tick(3.0)
        assert rec.add("x", 0.0, 1.0) is None
    assert sp["end"] - sp["start"] == 3.0
    assert rec.spans == []
