"""Command line of the benchmark.

``python3 -m bench_e2e --workload W --seed N --seconds S --trace 0|1``
    One workload in this process (the form ``BENCHMARK.json`` names).
    The last line of standard output is one JSON object with the keys
    ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
    metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``python3 -m bench_e2e run --seed N [--workload W] [--out FILE] [--trace-out FILE] [--quick]``
    Every workload (or one), each in its own fresh subprocess so that
    ``peak_rss_mb`` is per workload; ``--trace-out`` adds the traced pass
    and writes its spans as JSONL. Exits non-zero on any failed check.

``python3 -m bench_e2e agree A.json B.json``
    Compare two ``run --out`` result sets against the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

from bench_e2e.common import ROOT, SRC, THREAD_ENV, WORK

WORKLOADS = ("corpus_exp", "ooc_exp", "serve_mix", "stream_ingest")
QUICK_SECONDS = 1


def _workload_module(name: str):
    import importlib

    return importlib.import_module(f"bench_e2e.{name}")


def _emit(names, units, metrics: dict) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the contract's names."""
    missing = [n for n in names if n not in metrics]
    if missing:
        raise SystemExit(f"benchmark bug: metrics not measured: {missing}")
    return {n: {"value": float(metrics[n]), "unit": units[n]} for n in names}


def run_one(args) -> int:
    """Driver form: one workload, here, now."""
    if not SRC.is_dir():
        print(f"bench_e2e: no program to measure at {SRC}", file=sys.stderr)
        return 2
    # A terminated run must still unwind: the ``finally`` blocks stop the
    # daemon and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Before numpy loads: one BLAS/OpenMP thread here and in children.
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    from bench_e2e.agree import load_contract
    from bench_e2e.checks import Ops
    from bench_e2e.common import SpeedProbe, median
    from bench_e2e.spans import Recorder

    contract = load_contract()
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    WORK.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(WORK)
    if args.quick:
        print("quick mode: sizes cut to finish in seconds - not for numbers")
    try:
        if not args.trace:
            metrics, ops = _workload_module(args.workload).measure(
                args.seed, args.seconds, args.quick)
            names = [m["name"] for m in contract["end_to_end"]]
        else:
            # The contract wants every per-layer metric on every traced
            # run. Layers this workload does not exercise are filled in
            # from a quick pass of the workloads that do; the named
            # workload's own full-size values are taken last and win.
            metrics = {}
            ops = Ops()
            for name in [w for w in WORKLOADS if w != args.workload] + [args.workload]:
                home = name == args.workload
                rec = Recorder()
                part, part_ops = _workload_module(name).trace(
                    rec, args.seed, args.quick or not home)
                metrics.update(part)
                ops.merge(part_ops)
                if args.trace_out:
                    rec.write_jsonl(args.trace_out, workload=name, home=home,
                                    seed=args.seed)
            # How slow the box was while this pass ran; per-layer times are
            # as measured, only the end-to-end metrics are normalised by it.
            probe = SpeedProbe()
            metrics["bench.machine_slowdown"] = (
                median([probe() for _ in range(5)]) / SpeedProbe.NOMINAL_S)
            names = [m["name"] for m in contract["per_layer"]]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    emitted = _emit(names, units, metrics)
    for name, cell in emitted.items():
        print(f"{args.workload} {name} {cell['value']:.6g} {cell['unit']}")
    note = getattr(_workload_module(args.workload), "NOTE", None)
    if note:
        print(note)
    for failure in ops.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": emitted,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh subprocess; collect a result set."""
    from bench_e2e.agree import load_contract

    seconds = QUICK_SECONDS if args.quick else load_contract()["run_seconds"]
    result = {"seed": args.seed, "quick": args.quick, "workloads": {}}
    failed = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        entry = {}
        for trace in (0, 1) if args.trace_out else (0,):
            command = [sys.executable, "-m", "bench_e2e", "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(seconds),
                       "--trace", str(trace)]
            if args.quick:
                command.append("--quick")
            if trace:
                command += ["--trace-out", os.path.abspath(args.trace_out)]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(done.stdout)
            if done.returncode:
                print(f"{workload}: exited with {done.returncode}", file=sys.stderr)
                return done.returncode
            last = json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])
            entry["per_layer" if trace else "end_to_end"] = last["metrics"]
            entry["attempted"] = entry.get("attempted", 0) + last["attempted"]
            entry["failed"] = entry.get("failed", 0) + last["failed"]
        failed += entry["failed"]
        result["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"ops failed: {failed}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench_e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="append the traced pass's spans (JSONL)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, a few seconds per workload; not for numbers")
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run", help="all workloads, one subprocess each")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--workload", choices=WORKLOADS)
    run.add_argument("--out", help="write the result set (JSON) here")
    run.add_argument("--trace-out", help="also run the traced pass; spans go here (JSONL)")
    run.add_argument("--quick", action="store_true")
    agree = sub.add_parser("agree", help="compare two result sets against the bounds")
    agree.add_argument("a")
    agree.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_all(args)
    if args.command == "agree":
        from bench_e2e.agree import main as agree_main

        return agree_main(args.a, args.b)
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required (or use run / agree)")
    if args.quick:
        args.seconds = min(args.seconds, QUICK_SECONDS)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
