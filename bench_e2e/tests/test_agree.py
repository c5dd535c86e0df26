import copy
import json

from bench_e2e import agree

CONTRACT = {"end_to_end": [
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.20},
]}


def result_set(throughput=100.0, setup=2.0, steps=3.25, seed=1, failed=0):
    cell = lambda v, u: {"value": v, "unit": u}
    return {"seed": seed, "quick": False, "workloads": {"w": {
        "attempted": 10, "failed": failed,
        "end_to_end": {"throughput_per_s": cell(throughput, "1/s"),
                       "setup_s": cell(setup, "s")},
        "per_layer": {name: cell(steps, "count") for name in agree.EXACT},
    }}}


def test_sets_within_bounds_agree_in_either_order():
    a, b = result_set(), result_set(throughput=109.0, setup=2.3)
    assert agree.compare(a, b, CONTRACT) == []
    assert agree.compare(b, a, CONTRACT) == []


def test_a_metric_beyond_its_bound_is_reported():
    problems = agree.compare(result_set(), result_set(throughput=88.0), CONTRACT)
    assert len(problems) == 1 and "throughput_per_s" in problems[0]


def test_exact_counts_must_repeat_for_the_same_seed_only():
    a, b = result_set(), result_set(steps=3.26)
    assert len(agree.compare(a, b, CONTRACT)) == len(agree.EXACT)
    assert agree.compare(a, result_set(steps=3.26, seed=2), CONTRACT) == []


def test_failed_ops_and_missing_workloads_disagree():
    assert any("failed ops" in p
               for p in agree.compare(result_set(), result_set(failed=1), CONTRACT))
    b = copy.deepcopy(result_set())
    b["workloads"]["other"] = b["workloads"].pop("w")
    assert len(agree.compare(result_set(), b, CONTRACT)) == 2


def test_main_exit_code(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    ends = {m["name"]: {"value": 1.0, "unit": m["unit"]}
            for m in agree.load_contract()["end_to_end"]}
    doc = {"seed": 1, "workloads": {"w": {"attempted": 1, "failed": 0, "end_to_end": ends}}}
    a.write_text(json.dumps(doc))
    doc["workloads"]["w"]["end_to_end"] = {
        k: {**v, "value": 2.0} for k, v in ends.items()}
    b.write_text(json.dumps(doc))
    assert agree.main(str(a), str(a)) == 0
    assert agree.main(str(a), str(b)) == 1
    assert "DISAGREE" in capsys.readouterr().out
