"""The benchmark's workloads: input generation, commands and output checks.

Two kinds of workload drive the public CLI:

* :class:`PairWorkload` -- ``rdf-align align v1.nt v2.nt --report OUT``
  on a synthetic scale-free version pair.  The pair itself is fixed by
  the *dataset seed* (7 by default, 8 held out); the ``--seed`` of the
  benchmark shuffles the triple order of both files and renames every
  blank node through a seeded bijection.  Each seed therefore feeds the
  program different bytes describing the same graphs, so the run cost
  stays put from seed to seed while the correct answer stays known: the
  aligned pairs, mapped back through the bijection, must hash to the
  digest pinned for the dataset seed.
* :class:`MatrixWorkload` -- ``rdf-align experiment figure11``, which
  generates its EFO-like history from ``--seed`` itself.  Its rows are
  checked against the pinned digest when the seed has one, and on every
  seed against the figure's shape check and against cells recomputed
  independently from the version files the set-up writes.

Functions here run in three places: the set-up and oracle steps in a
fresh interpreter (``child.py``), and the output checks in the
benchmark's own process.  All of them import the package from the
checkout's ``src`` directory.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS_PATH = HERE / "pins.json"

_BLANK = re.compile(r"_:[A-Za-z0-9_.-]+")


def use_source_tree() -> None:
    """Import ``repro`` from the checkout, never from an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def sha256_lines(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Check:
    """The verdict on one run's output file."""

    problems: list
    digest: str | None
    output_bytes: int
    pairs: int = 0


# ----------------------------------------------------------------------
# File-pair workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PairWorkload:
    name: str
    why: str
    method: str
    engine: str
    scale: float
    dataset_seed: int = 7

    def generate(self, seed: int, dataset_seed: int, out_dir: Path) -> None:
        """Write ``v1.nt``, ``v2.nt`` and the blank bijection ``blanks.json``."""
        from repro.datasets.synthetic import SyntheticConfig, SyntheticGenerator
        from repro.io import ntriples

        generator = SyntheticGenerator(
            config=SyntheticConfig(
                shape="scale_free", seed=dataset_seed, versions=2, scale=self.scale
            )
        )
        texts = [ntriples.dumps(generator.graph(version)) for version in range(2)]
        rng = random.Random(seed)
        labels = sorted({label for text in texts for label in _BLANK.findall(text)})
        fresh = [f"_:n{index}" for index in range(len(labels))]
        rng.shuffle(fresh)
        rename = dict(zip(labels, fresh))
        out_dir.mkdir(parents=True, exist_ok=True)
        for version, text in enumerate(texts, start=1):
            lines = _BLANK.sub(lambda match: rename[match.group(0)], text).splitlines()
            rng.shuffle(lines)
            (out_dir / f"v{version}.nt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        restore = {new: old for old, new in rename.items()}
        (out_dir / "blanks.json").write_text(json.dumps(restore), encoding="utf-8")

    def argv(self, inputs: Path, out_dir: Path, seed: int) -> list[str]:
        return [
            "align", str(inputs / "v1.nt"), str(inputs / "v2.nt"),
            "--method", self.method, "--engine", self.engine,
            "--report", str(self.output(out_dir)),
        ]

    def output(self, out_dir: Path) -> Path:
        return out_dir / "report.json"

    def expected(self, seed: int, dataset_seed: int, pins: dict) -> str:
        try:
            return pins[self.name][str(dataset_seed)]
        except KeyError:
            raise KeyError(
                f"{self.name}: no digest pinned for dataset seed {dataset_seed}"
            ) from None

    def oracle(self, seed: int, inputs: Path) -> dict:
        return {}  # the pinned digest covers every seed

    def check(self, inputs: Path, out_dir: Path, expected: str, oracle: dict) -> Check:
        """Validate the report and compare its mapped pair digest."""
        from repro.align.report import AlignmentReport

        path = self.output(out_dir)
        if not path.is_file():
            return Check([f"{path.name} was not written"], None, 0)
        size = path.stat().st_size
        payload = json.loads(path.read_text(encoding="utf-8"))
        problems = AlignmentReport.validate(payload)
        if problems:
            return Check(problems, None, size)
        restore = json.loads((inputs / "blanks.json").read_text(encoding="utf-8"))
        pairs = payload["pairs"]
        if payload["stats"]["pair_count"] != len(pairs):
            problems.append("stats.pair_count disagrees with the pair list")
        digest = canonical_pair_digest(pairs, restore)
        if digest != expected:
            problems.append(f"pair digest {digest[:12]} != expected {expected[:12]}")
        return Check(problems, digest, size, len(pairs))

    def reference_digest(self, dataset_seed: int) -> str:
        """The digest of the un-shuffled pair, computed in-process through
        the library with the *other* refinement engine (pinning aid)."""
        from repro.align import AlignConfig, Aligner
        from repro.datasets.synthetic import SyntheticConfig, SyntheticGenerator

        generator = SyntheticGenerator(
            config=SyntheticConfig(
                shape="scale_free", seed=dataset_seed, versions=2, scale=self.scale
            )
        )
        engine = {"dense": "reference", "reference": "dense"}[self.engine]
        aligner = Aligner(AlignConfig(method=self.method, engine=engine))
        report = aligner.report(generator.graph(0), generator.graph(1))
        return canonical_pair_digest(report.pairs, {})


def canonical_pair_digest(pairs, restore: dict) -> str:
    """sha256 over the sorted ``source<TAB>target`` lines, blank labels
    mapped back through *restore* (renamed label -> original label)."""
    mapped = sorted(
        f"{restore.get(source, source)}\t{restore.get(target, target)}"
        for source, target in pairs
    )
    return sha256_lines(mapped)


# ----------------------------------------------------------------------
# The Figure-11 matrix
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MatrixWorkload:
    name: str
    why: str
    scale: float
    jobs: int
    versions: int = 10
    dataset_seed: None = None  # the history comes from the seed itself

    def generate(self, seed: int, dataset_seed: int | None, out_dir: Path) -> None:
        """Write every version of the seed's EFO-like history as N-Triples."""
        from repro.datasets.efo import EFOGenerator
        from repro.io import ntriples

        generator = EFOGenerator(scale=self.scale, seed=seed, versions=self.versions)
        out_dir.mkdir(parents=True, exist_ok=True)
        for version in range(self.versions):
            ntriples.dump_path(generator.graph(version), out_dir / f"v{version + 1}.nt")

    def argv(self, inputs: Path, out_dir: Path, seed: int) -> list[str]:
        return [
            "experiment", "figure11",
            "--scale", repr(self.scale),
            "--seed", str(seed),
            "--jobs", str(self.jobs),
            "--out", str(out_dir),
        ]

    def output(self, out_dir: Path) -> Path:
        return out_dir / "figure11.json"

    def expected(self, seed: int, dataset_seed: None, pins: dict) -> str | None:
        return pins.get(self.name, {}).get(str(seed))

    def oracle_cells(self, seed: int) -> list[tuple[int, int]]:
        """Version pairs (1-based) recomputed by the oracle: one straddling
        each rename event of the history plus one drawn from the seed."""
        rng = random.Random(seed)
        source, target = sorted(rng.sample(range(1, self.versions + 1), 2))
        return sorted({(1, 5), (7, 8), (source, target)})

    def oracle(self, seed: int, inputs: Path) -> dict:
        """Aligned-edge counts of the oracle cells, from the version files
        through the session API (parse -> union -> method), independent of
        the VersionStore and the pool the figure runs on."""
        from repro.align import AlignConfig, Aligner
        from repro.evaluation.metrics import aligned_edge_count

        counts = {}
        for source, target in self.oracle_cells(seed):
            row = []
            for method in ("deblank", "hybrid", "overlap"):
                result = Aligner(AlignConfig(method=method)).align(
                    inputs / f"v{source}.nt", inputs / f"v{target}.nt"
                )
                row.append(aligned_edge_count(result.graph, result.partition))
            counts[f"{source},{target}"] = row
        return counts

    def check(self, inputs: Path, out_dir: Path, expected: str | None, oracle: dict) -> Check:
        """Shape check, oracle cells, and the pinned rows digest."""
        from repro.experiments import figure11
        from repro.experiments.base import ExperimentResult

        path = self.output(out_dir)
        if not path.is_file():
            return Check([f"{path.name} was not written"], None, 0)
        size = path.stat().st_size
        payload = json.loads(path.read_text(encoding="utf-8"))
        rows = payload["rows"]
        result = ExperimentResult(
            figure=payload["figure"],
            title=payload["title"],
            parameters=payload["parameters"],
            rows=rows,
            rendered="",
        )
        problems = list(figure11.check_shape(result))
        if len(rows) != self.versions**2:
            problems.append(f"{len(rows)} rows, expected {self.versions ** 2}")
        by_pair = {(row["source"], row["target"]): row for row in rows}
        for cell, (deblank, hybrid, overlap) in oracle.items():
            source, target = (int(part) for part in cell.split(","))
            row = by_pair.get((source, target))
            want = {"deblank": deblank, "hybrid_gain": hybrid - deblank,
                    "overlap_gain": overlap - hybrid}
            if row is None or any(row[key] != value for key, value in want.items()):
                problems.append(f"cell {cell} disagrees with the oracle: {row} vs {want}")
        digest = sha256_lines([json.dumps(rows, sort_keys=True)])
        if expected is not None and digest != expected:
            problems.append(f"rows digest {digest[:12]} != pinned {expected[:12]}")
        return Check(problems, digest, size)

    def reference_digest(self, seed: int) -> str:
        """The rows digest of a serial in-process run (pinning aid)."""
        from repro.experiments import figure11

        result = figure11.run(scale=self.scale, seed=seed, versions=self.versions)
        return sha256_lines([json.dumps(result.rows, sort_keys=True)])


WORKLOADS = {
    workload.name: workload
    for workload in (
        PairWorkload(
            name="pair_overlap",
            why="overlap on the dense engine: every pair-pipeline layer at size; "
            "Enrich and candidate matching grow super-linearly",
            method="overlap",
            engine="dense",
            scale=200,
        ),
        MatrixWorkload(
            name="matrix_fig11",
            why="Figure 11: 55 small alignments over one VersionStore through "
            "the shm pool; parse, big unions and reports idle",
            scale=1.0,
            jobs=2,
        ),
    )
}
