"""One benchmark step in a fresh interpreter: set-up, oracle or timed run.

``run.py`` starts this script once per step so that no run inherits a
warmed heap or the package's process-wide memos
(``SyntheticGenerator.shared``, ``VersionStore.shared``) from another::

    python3 perfbench/child.py --step run --workload pair_overlap --seed 1 \\
        --work DIR --out DIR/run0 --trace 0 --result DIR/run0.json

The step writes its measurements as JSON to ``--result``.  A timed run
imports the CLI and every traced module first, then times
``repro.cli.main(argv)`` alone: ``run_s`` is its wall time, ``cpu_s`` the
user+system CPU of this process and of every pool worker it reaped,
``peak_rss_mb`` the larger of the two peak resident sets.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import resource
import time
from pathlib import Path

import tracer
import workloads


def _cpu(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def timed_run(argv: list[str], trace: bool) -> dict:
    from repro.cli import main

    for module in dict.fromkeys(module for module, _, _, _ in tracer.LAYER_TABLE):
        importlib.import_module(module)
    recorder = None
    if trace:
        recorder = tracer.Tracer()
        recorder.install()
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    code = main(argv)
    run_s = time.perf_counter() - start
    own_after = resource.getrusage(resource.RUSAGE_SELF)
    reaped_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "code": code,
        "run_s": run_s,
        "cpu_s": _cpu(own_after) - _cpu(own) + _cpu(reaped_after) - _cpu(reaped),
        "peak_rss_mb": max(own_after.ru_maxrss, reaped_after.ru_maxrss) / 1024.0,
    }
    if recorder is not None:
        result["layers"] = recorder.summary()
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--step", choices=("setup", "oracle", "run"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dataset-seed", type=int, default=None)
    parser.add_argument("--work", type=Path, required=True, help="the set-up's input directory")
    parser.add_argument("--out", type=Path, help="output directory of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    workloads.use_source_tree()
    workload = dataclasses.replace(workloads.WORKLOADS[args.workload], scale=args.scale)
    if args.step == "setup":
        import repro.datasets.efo  # noqa: F401  (imports stay out of set-up time)
        import repro.datasets.synthetic  # noqa: F401
        import repro.io  # noqa: F401

        start = time.perf_counter()
        workload.generate(args.seed, args.dataset_seed, args.work)
        result = {"setup_s": time.perf_counter() - start}
    elif args.step == "oracle":
        result = {"oracle": workload.oracle(args.seed, args.work)}
    else:
        args.out.mkdir(parents=True, exist_ok=True)
        argv = workload.argv(args.work, args.out, args.seed)
        result = timed_run(argv, bool(args.trace))
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
