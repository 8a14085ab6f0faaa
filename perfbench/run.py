"""The repository benchmark: end-to-end CLI workloads and a per-layer trace.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload pair_overlap --seed 1 --seconds 50 --trace 0

One invocation

1. sets the workload up three times, each in a fresh interpreter that
   generates the inputs from ``--seed`` and writes them to disk
   (``setup_s`` is the median), and checks the three set-ups wrote the
   same bytes;
2. for the matrix, recomputes the oracle cells from those files;
3. runs the workload's CLI command, each run in a fresh interpreter, until
   ``--seconds`` have passed (at least three runs), and checks every
   run's output (see ``workloads.py``).  A run whose output fails its
   check, or whose command fails, counts in ``failed``;
4. with ``--trace 1``, alternates untraced and traced runs and reports
   the per-layer self times and counts of the traced ones.

The last line of standard output is the result object; the line before
it records provenance and the raw samples.  All scratch files live under
``.perfbench-work/`` in the checkout and are removed before exit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

CHILD = workloads.HERE / "child.py"
WORK_ROOT = workloads.ROOT / ".perfbench-work"

SETUPS = 3
MAX_SETUPS = 9
SETUP_S = 5.0
#: Runs per invocation at least; a traced invocation adds one, so that it
#: alternates two untraced and two traced runs.
MIN_RUNS = 3
#: Every step, and the whole invocation, ends within this many seconds.
BUDGET_S = 170.0

#: The end-to-end metrics and their units.
END_TO_END = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "report_mb": "MB", "setup_s": "s"}


class StepFailed(Exception):
    pass


class Bench:
    """One invocation: its work directory, deadline and child processes."""

    def __init__(self, workload, seed: int, dataset_seed: int | None) -> None:
        self.workload = workload
        self.seed = seed
        self.dataset_seed = dataset_seed
        self.deadline = time.monotonic() + BUDGET_S
        self.work = WORK_ROOT / f"{workload.name}-{seed}-{os.getpid()}"

    def step(self, step: str, name: str, **options) -> dict:
        """Run one ``child.py`` step; its JSON result, or StepFailed."""
        result = self.work / f"{name}.json"
        command = [
            sys.executable, str(CHILD), "--step", step,
            "--workload", self.workload.name, "--scale", repr(self.workload.scale),
            "--seed", str(self.seed), "--work", str(options.pop("inputs", self.work / "inputs")),
            "--result", str(result),
        ]
        if self.dataset_seed is not None:
            command += ["--dataset-seed", str(self.dataset_seed)]
        for key, value in options.items():
            command += [f"--{key}", str(value)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(workloads.SRC), env.get("PYTHONPATH")])
        )
        with open(self.work / f"{name}.log", "wb") as log:
            # A session of its own, so a timeout takes the pool workers too.
            process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env,
                cwd=workloads.ROOT, start_new_session=True,
            )
            try:
                code = process.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
                raise StepFailed(f"{name}: timed out") from None
            finally:
                try:  # reap anything the step left behind in its session
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if code != 0 or not result.is_file():
            tail = (self.work / f"{name}.log").read_text(errors="replace")[-2000:]
            raise StepFailed(f"{name}: exit code {code}\n{tail}")
        return json.loads(result.read_text(encoding="utf-8"))

    def setup(self) -> tuple[list[float], list[str]]:
        """Set up at least ``SETUPS`` times, more while they take under
        ``SETUP_S`` in all (a cheap set-up needs more samples for a steady
        median); keep the first, compare the rest."""
        times, problems, reference = [], [], None
        start = time.monotonic()
        for index in range(MAX_SETUPS):
            if index >= SETUPS and time.monotonic() - start >= SETUP_S:
                break
            inputs = self.work / ("inputs" if index == 0 else f"setup{index}")
            times.append(self.step("setup", f"setup{index}", inputs=inputs)["setup_s"])
            digest = _tree_digest(inputs)
            if reference is None:
                reference = digest
            else:
                if digest != reference:
                    problems.append(f"set-up {index} wrote different inputs")
                shutil.rmtree(inputs)
        return times, problems

    def run(self, index: int, trace: bool, expected, oracle: dict) -> dict:
        """One timed run plus its output check."""
        out = self.work / f"out{index}"
        before = set(_shm_segments())
        try:
            sample = self.step("run", f"run{index}", out=out, trace=int(trace))
        except StepFailed as error:
            sample = {"problems": [str(error)]}
        else:
            check = self.workload.check(self.work / "inputs", out, expected, oracle)
            sample["problems"] = list(check.problems)
            if sample["code"] != 0:
                sample["problems"].append(f"command exited with {sample['code']}")
            sample["report_mb"] = check.output_bytes / 1e6
            sample["digest"] = check.digest
            sample["pairs"] = check.pairs
        leaked = sorted(set(_shm_segments()) - before)
        if leaked:
            sample["problems"].append(f"leaked shared-memory segments {leaked}")
        sample["trace"] = trace
        shutil.rmtree(out, ignore_errors=True)
        return sample


def _shm_segments() -> list[str]:
    from repro.experiments.shm import list_segments

    return list_segments()


def _tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload, seed: int, seconds: float, trace: bool,
            dataset_seed: int | None = None, expected: str | None = None) -> tuple[dict, dict]:
    """Run one invocation; ``(result line, provenance line)``.

    *expected* overrides the pinned digest (the smoke test perturbs it).
    """
    if dataset_seed is None:
        dataset_seed = workload.dataset_seed
    if expected is None:
        expected = workload.expected(seed, dataset_seed, workloads.load_pins())
    bench = Bench(workload, seed, dataset_seed)
    bench.work.mkdir(parents=True)
    problems: list[str] = []
    samples: list[dict] = []
    setup_times: list[float] = []
    try:
        setup_times, setup_problems = bench.setup()
        problems += setup_problems
        oracle = bench.step("oracle", "oracle", inputs=bench.work / "inputs")["oracle"]
        # Measure for `seconds`: start no run that would end past the
        # window, judged by the slowest run so far.
        start = time.monotonic()
        slowest = 0.0
        while len(samples) < MIN_RUNS + trace or (
            time.monotonic() - start + slowest < seconds
        ):
            begun = time.monotonic()
            traced = trace and len(samples) % 2 == 1
            samples.append(bench.run(len(samples), traced, expected, oracle))
            slowest = max(slowest, time.monotonic() - begun)
            if time.monotonic() + slowest > bench.deadline:
                break
    except StepFailed as error:
        problems.append(str(error))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    failed = [sample for sample in samples if sample["problems"]]
    good = [sample for sample in samples if not sample["problems"]]
    digests = {sample["digest"] for sample in good}
    if len(digests) > 1:
        problems.append(f"runs disagree on the output digest: {sorted(digests)}")
    untraced = [sample for sample in good if not sample["trace"]]
    traced = [sample for sample in good if sample["trace"]]
    if not trace:
        values = {
            name: _median([sample[name] for sample in untraced])
            for name in ("run_s", "cpu_s", "peak_rss_mb", "report_mb")
        }
        values["setup_s"] = _median(setup_times)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        metrics = per_layer_metrics(untraced, traced)
    result = {
        "correct": not problems and not failed and bool(good),
        "attempted": max(1, len(samples)),
        "failed": len(failed) if samples else 1,
        "metrics": metrics,
    }
    provenance = {
        "workload": workload.name,
        "seed": seed,
        "dataset_seed": dataset_seed,
        **provenance_fields(),
        "setup_s": setup_times,
        "runs": [
            {key: sample.get(key) for key in ("trace", "run_s", "cpu_s", "peak_rss_mb")}
            for sample in samples
        ],
        "problems": problems + [p for sample in failed for p in sample["problems"]],
    }
    return result, provenance


def per_layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    """Median per-layer self times and counts over the traced runs."""
    metrics: dict[str, dict] = {}
    for layer in tracer.LAYERS:
        name = f"{layer}_s"
        metrics[name] = {
            "value": _median([sample["layers"][name] for sample in traced]),
            "unit": "s",
        }
    for name in tracer.COUNTS:
        metrics[name] = {
            "value": _median([sample["layers"][name] for sample in traced]),
            "unit": "count",
        }
    metrics["partition.pairs"] = {
        "value": _median([sample["pairs"] for sample in traced]),
        "unit": "count",
    }
    coverage = [
        sum(sample["layers"][f"{layer}_s"] for layer in tracer.LAYERS) / sample["run_s"]
        for sample in traced
    ]
    metrics["trace.coverage"] = {"value": _median(coverage), "unit": "ratio"}
    traced_s = _median([sample["run_s"] for sample in traced])
    untraced_s = _median([sample["run_s"] for sample in untraced])
    overhead = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics


def provenance_fields() -> dict:
    """Source identity and the machine, for every result."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # a plain checkout: the source digest identifies it
    source = hashlib.sha256()
    for path in sorted(workloads.SRC.rglob("*.py")):
        source.update(str(path.relative_to(workloads.SRC)).encode())
        source.update(path.read_bytes())
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "git_sha": sha,
        "src_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True, help="input seed of the workload")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--dataset-seed", type=int, default=None,
        help="version pair of the pair workloads (default 7; 8 is held out)",
    )
    args = parser.parse_args(argv)
    try:
        workloads.use_source_tree()
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    result, provenance = measure(
        workload, args.seed, args.seconds, bool(args.trace), args.dataset_seed
    )
    print(json.dumps(provenance))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
