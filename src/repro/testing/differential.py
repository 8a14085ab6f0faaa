"""Cross-engine / cross-jobs differential oracle over synthetic scenarios.

The system has four interchangeable execution paths — reference/dense
engines × serial/parallel jobs × legacy facade/session API — whose
equivalence used to be pinned only on hand-built fixtures.  This module
runs **every registered method** on a generated multi-version history
(:mod:`repro.datasets.synthetic`) across engines and job counts and
asserts the cross-cutting invariants:

* **engine parity** — the reference and dense engines produce
  byte-identical reports (modulo the ``engine`` marker itself);
* **jobs determinism** — sharding the version pairs over the store
  worker pool
  (:func:`repro.experiments.parallel.run_store_cells`, forced past its
  overhead refusal) yields byte-identical report JSON to the serial
  run, for every jobs count;
* **well-formedness** — alignments are structurally sound (pairs lie in
  the version sides, matched/unaligned sets are consistent, stats add
  up) and respect the generator's carried ground truth: a ground-truth
  pair whose two terms are label-equal must be aligned by every
  hierarchy method (label equality is the floor of the paper's method
  chain);
* **hierarchy containment** — the paper's ``trivial ⊆ deblank ⊆ hybrid
  ⊆ overlap`` alignment chain holds on every pair (per the registry's
  ``finer_than`` edges);
* **theta monotonicity** — raising the overlap threshold never invents
  literal matches: the literal round's match count (against the
  theta-independent hybrid base, with the recall-complete ``"safe"``
  probe) is non-increasing along the theta sweep — the final alignment
  itself is legitimately non-monotone (paper Figure 15);
* **report round-trip** — every produced
  :class:`~repro.align.report.AlignmentReport` survives
  ``from_json(to_json())`` exactly;
* **persistence parity** — saving the history's
  :class:`~repro.experiments.store.VersionStore` through every
  persistence backend (:class:`~repro.experiments.persist.MemoryBackend`
  and :class:`~repro.experiments.persist.DiskBackend`) and loading it
  back yields bit-identical CSR blocks and byte-identical alignment
  reports on every method × pair — the canonical N-Triples + block-file
  round trip loses nothing;
* **incremental parity** — maintaining each version's deblanking
  fixpoint under the generator's deltas
  (``Aligner(..., incremental=True).align_chain``; see
  :mod:`repro.core.maintain`) yields, on every consecutive pair, a
  partition equivalent to the from-scratch one and a byte-identical
  report;
* **no crashes** — a deliberate :class:`~repro.exceptions.ReproError`
  refusal is legitimate when consistent across paths, but any other
  exception in any method × engine cell is captured as a ``crash``
  divergence (the sweep still completes and the artifact is written);
* **k-bisimulation boundedness** (``--axis kbisim``) — the
  k-bisimulation family (:mod:`repro.core.ksignature`) sweeps the round
  bound: per pair, engines agree byte-wise at *every* ``k``, the
  partition at ``k+1`` refines the partition at ``k`` (and the aligned
  pair set shrinks accordingly), the anchor fixpoint method's alignment
  is contained at every ``k``, and the alignment at ``k`` = the
  combined graph's diameter is byte-identical to the fixpoint method's
  (modulo the method-identity markers).

Every failure is a :class:`Divergence` carrying the scenario config, so
CI can upload ``{seed, config}`` JSON artifacts from which the exact
case is rebuilt (``rdf-align synth --config artifact.json --check``;
see ``docs/synthetic.md``).

Run the pinned seed matrix from the command line::

    python -m repro.testing.differential --out results/differential
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..align import AlignConfig, Aligner, AlignmentReport, get_method, refines
from ..align.registry import method_names, method_order
from ..benchlog import append_bench_entry  # noqa: F401  (re-exported; CI uses it)
from ..datasets.synthetic import SCENARIOS, SyntheticConfig, SyntheticGenerator
from ..exceptions import ReproError
from ..experiments.cells import method_counts_cell
from ..experiments.parallel import run_store_cells
from ..experiments.store import VersionStore
from ..io.atomic import atomic_write_text

#: Default theta sweep of the monotonicity check (coarse on purpose —
#: the oracle's job is ordering, not the Figure 15 curve).
DEFAULT_THETAS: tuple[float, ...] = (0.35, 0.65, 0.95)

#: Default job counts the determinism check compares against serial.
DEFAULT_JOBS: tuple[int, ...] = (1, 2)

#: Default engines; every registered method must agree across them.
DEFAULT_ENGINES: tuple[str, ...] = ("reference", "dense")

#: The oracle's selectable axes: ``"all"`` runs every invariant,
#: ``"incremental"`` runs only the incremental-vs-scratch parity check,
#: ``"persistence"`` only the save/load parity check, ``"faults"`` only
#: the fault-tolerance parity check, and ``"kbisim"`` only the
#: k-bisimulation boundedness sweep (each a dedicated CI job, cheap
#: enough to run on every push).
AXES: tuple[str, ...] = ("all", "incremental", "persistence", "faults", "kbisim")


@dataclass(frozen=True)
class Divergence:
    """One invariant violation, tied to the scenario that exposed it."""

    scenario: str
    invariant: str
    method: str
    detail: str
    pair: tuple[int, int] | None = None
    k: int | None = None

    def render(self) -> str:
        where = f" pair={self.pair}" if self.pair is not None else ""
        bound = f" k={self.k}" if self.k is not None else ""
        return (
            f"[{self.scenario}] {self.invariant} method={self.method}"
            f"{where}{bound}: {self.detail}"
        )


@dataclass
class DifferentialReport:
    """The outcome of one scenario's full method × engine × jobs sweep."""

    scenario: str
    config: SyntheticConfig
    methods: tuple[str, ...]
    engines: tuple[str, ...]
    jobs: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    cells: int = 0
    refusals: int = 0
    generate_seconds: float = 0.0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.divergences)} divergence(s)"
        refused = f", {self.refusals} refusal(s)" if self.refusals else ""
        return (
            f"{self.scenario}: {status} "
            f"({len(self.methods)} methods x {len(self.engines)} engines x "
            f"jobs {list(self.jobs)}, {len(self.pairs)} pairs, "
            f"{self.cells} cells{refused})"
        )

    def to_dict(self) -> dict:
        """The CI artifact payload: seed + config + what diverged."""
        return {
            "schema": "repro/differential-report",
            "version": 1,
            "scenario": self.scenario,
            "seed": self.config.seed,
            "config": self.config.to_dict(),
            "methods": list(self.methods),
            "engines": list(self.engines),
            "jobs": list(self.jobs),
            "pairs": [list(pair) for pair in self.pairs],
            "cells": self.cells,
            "refusals": self.refusals,
            "ok": self.ok,
            "divergences": [
                {
                    "invariant": d.invariant,
                    "method": d.method,
                    "pair": list(d.pair) if d.pair else None,
                    "k": d.k,
                    "detail": d.detail,
                }
                for d in self.divergences
            ],
        }


@dataclass(frozen=True)
class Refusal:
    """A method declining an input with a :class:`~repro.exceptions.
    ReproError` (e.g. label invention on cyclic blanks).

    A *consistent* refusal — same error type and message on every
    engine and jobs count — is a legitimate differential outcome; only
    path-dependent refusals are divergences.  ``expected=False`` marks
    an arbitrary exception instead of a deliberate ``ReproError``: that
    is a crash, always a divergence — but captured as a marker so the
    oracle still finishes the sweep and writes the ``{seed, config}``
    artifact the reproduction workflow depends on.
    """

    error_type: str
    message: str
    expected: bool = True

    def render(self) -> str:
        prefix = "REFUSED" if self.expected else "CRASHED"
        return f"{prefix} {self.error_type}: {self.message}"


def _run_cell(config: AlignConfig, source, target):
    """One alignment cell: a result object, or the method's Refusal."""
    try:
        return Aligner(config).align(source, target)
    except ReproError as error:
        return Refusal(type(error).__name__, str(error))
    except Exception as error:  # reprolint: disable=broad-except  # the oracle must report crashes, not die
        return Refusal(type(error).__name__, str(error), expected=False)


def _report_cell(store, config: AlignConfig, pair: tuple[int, int]) -> str:
    """The jobs axis's pool cell: one pair's report JSON or refusal."""
    outcome = _run_cell(config, store.graph(pair[0]), store.graph(pair[1]))
    if isinstance(outcome, Refusal):
        return outcome.render()
    return outcome.report(config).to_json()


def _parity_bytes(report: AlignmentReport) -> str:
    """The report JSON with the ``engine`` marker removed.

    Engines must agree on everything else byte-for-byte; the marker
    itself legitimately differs, so it is excluded from the comparison.
    """
    if isinstance(report, Refusal):
        return report.render()
    payload = report.to_dict()
    payload.pop("engine", None)
    return json.dumps(payload, indent=2, sort_keys=True)


def _family_bytes(report: AlignmentReport) -> str:
    """The report JSON with every method-identity marker removed.

    Used by the k-bisimulation convergence check: a ``kbisim`` run at
    ``k >= `` the graph diameter must agree with the fixpoint method on
    everything except how the run *describes itself* — the method name,
    its parameters (``k``) and its diagnostics (signature round stats)
    legitimately differ, while the alignment payload (pairs, unaligned
    sets, stats) must be byte-identical.
    """
    if isinstance(report, Refusal):
        return report.render()
    payload = report.to_dict()
    for marker in ("engine", "method", "parameters", "diagnostics"):
        payload.pop(marker, None)
    return json.dumps(payload, indent=2, sort_keys=True)


def _render_node(graph, node) -> str:
    return repr(graph.original(node))


class _ScenarioOracle:
    """One scenario's checks (kept as a class so helpers share state)."""

    def __init__(
        self,
        name: str,
        config: SyntheticConfig,
        methods: Sequence[str],
        engines: Sequence[str],
        jobs: Sequence[int],
        thetas: Sequence[float],
        shared: bool,
        axis: str = "all",
    ) -> None:
        if axis not in AXES:
            raise ValueError(f"unknown axis {axis!r}; expected one of {AXES}")
        self.axis = axis
        self.report = DifferentialReport(
            scenario=name,
            config=config,
            methods=tuple(methods),
            engines=tuple(engines),
            jobs=tuple(int(j) for j in jobs),
            pairs=tuple(
                (index, index + 1) for index in range(config.versions - 1)
            ),
        )
        self.thetas = tuple(sorted(float(t) for t in thetas))
        started = time.perf_counter()
        if shared:
            self.generator = SyntheticGenerator.shared(config)
        else:
            self.generator = SyntheticGenerator(config=config)
        self.graphs = self.generator.graphs()
        self.report.generate_seconds = time.perf_counter() - started
        #: The history as a store the pool hands its workers (jobs axis).
        self.store = VersionStore(self.generator)

    # ------------------------------------------------------------------
    def _diverge(
        self, invariant: str, method: str, detail: str,
        pair: tuple[int, int] | None = None,
        k: int | None = None,
    ) -> None:
        self.report.divergences.append(
            Divergence(
                scenario=self.report.scenario,
                invariant=invariant,
                method=method,
                detail=detail,
                pair=pair,
                k=k,
            )
        )

    def _results(self, method: str, engine: str) -> list:
        """Serial per-pair outcomes (results or :class:`Refusal` markers)."""
        config = AlignConfig(method=method, engine=engine)
        return [
            _run_cell(config, self.graphs[s], self.graphs[t])
            for s, t in self.report.pairs
        ]

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_jobs_determinism(self, method: str, engine: str,
                               baseline: list[str]) -> None:
        """Pooled runs must reproduce the serial report bytes exactly."""
        config = AlignConfig(method=method, engine=engine)
        pairs = self.report.pairs
        for jobs in self.report.jobs:
            if jobs <= 1:
                # The serial *baseline* already is the jobs=1 run —
                # run_store_cells runs jobs<=1 as the identical in-process
                # loop, so re-running it would compare the computation
                # against itself.
                continue
            # force=True skips the overhead refusal: the axis exists to
            # compare a real pool against the serial run.
            pooled = run_store_cells(
                self.store, _report_cell, pairs,
                jobs=jobs, config=config, force=True,
            )
            for index, (expected, got) in enumerate(zip(baseline, pooled)):
                if expected != got:
                    self._diverge(
                        "jobs_determinism", method,
                        f"jobs={jobs} engine={engine} report differs from "
                        f"serial run",
                        pair=pairs[index],
                    )

    def check_engine_parity(self, method: str,
                            by_engine: dict[str, list]) -> None:
        reference_engine = self.report.engines[0]
        baseline = by_engine[reference_engine]
        for engine in self.report.engines[1:]:
            for index, (first, second) in enumerate(
                zip(baseline, by_engine[engine])
            ):
                if _parity_bytes(first) != _parity_bytes(second):
                    self._diverge(
                        "engine_parity", method,
                        f"engines {reference_engine!r} and {engine!r} "
                        f"disagree byte-wise",
                        pair=self.report.pairs[index],
                    )

    def check_well_formedness(self, method: str, engine: str,
                              results: list) -> None:
        """Structural soundness + carried-ground-truth consistency."""
        spec = get_method(method)
        for index, result in enumerate(results):
            pair = self.report.pairs[index]
            if isinstance(result, Refusal):
                continue
            graph = result.graph
            alignment = result.alignment
            pairs = set(alignment.pairs())
            bad_sides = [
                (s, t) for s, t in pairs
                if s not in graph.source_nodes or t not in graph.target_nodes
            ]
            if bad_sides:
                self._diverge(
                    "well_formedness", method,
                    f"{len(bad_sides)} aligned pair(s) outside the version "
                    f"sides (engine={engine})",
                    pair=pair,
                )
            matched_sources = {s for s, _ in pairs}
            matched_targets = {t for _, t in pairs}
            if matched_sources & alignment.unaligned_source():
                self._diverge(
                    "well_formedness", method,
                    f"nodes both matched and unaligned on the source side "
                    f"(engine={engine})",
                    pair=pair,
                )
            if matched_targets & alignment.unaligned_target():
                self._diverge(
                    "well_formedness", method,
                    f"nodes both matched and unaligned on the target side "
                    f"(engine={engine})",
                    pair=pair,
                )
            # Carried ground truth: label-equal persistent entities are the
            # floor of the method chain — every hierarchy method must align
            # them (baselines sit outside the hierarchy contract, and the
            # all-node bisimulation family may legitimately split
            # label-equal URIs by structure: label_floor=False).
            if spec.baseline or not spec.label_floor:
                continue
            truth = self.generator.ground_truth(*pair)
            labels = graph.labels()
            blanks = graph.blanks()
            for source_node, target_node in truth.combined_pairs(graph):
                if source_node in blanks or target_node in blanks:
                    continue  # blanks share one label sentinel, not a name
                if labels[source_node] != labels[target_node]:
                    continue  # renamed entity — above the trivial floor
                if not alignment.aligned(source_node, target_node):
                    self._diverge(
                        "well_formedness", method,
                        f"label-equal ground-truth pair "
                        f"{_render_node(graph, source_node)} ≙ "
                        f"{_render_node(graph, target_node)} left unaligned "
                        f"(engine={engine})",
                        pair=pair,
                    )
                    break

    def check_hierarchy(self, engine: str,
                        results_by_method: dict[str, list]) -> None:
        """Paper §3.4/§4.7: coarser methods' alignments are contained."""
        order = [m for m in method_order() if m in results_by_method]
        for coarser, finer in zip(order, order[1:]):
            if not refines(finer, coarser):
                continue
            for index, (coarse, fine) in enumerate(
                zip(results_by_method[coarser], results_by_method[finer])
            ):
                if isinstance(coarse, Refusal) or isinstance(fine, Refusal):
                    continue
                missing = set(coarse.alignment.pairs()) - set(
                    fine.alignment.pairs()
                )
                if missing:
                    self._diverge(
                        "hierarchy", finer,
                        f"{len(missing)} pair(s) aligned by {coarser!r} but "
                        f"not by {finer!r} (engine={engine})",
                        pair=self.report.pairs[index],
                    )

    def check_theta_monotonicity(self, engine: str) -> None:
        """Raising theta must never grow the literal-round match count.

        Only the *first* (literal) round is provably monotone: it matches
        against the theta-independent hybrid base, so a stricter theta can
        only admit a subset of pairs.  The final alignment is genuinely
        non-monotone (the paper's Figure 15 exact-match curve peaks
        mid-range — enrichment and re-refinement interact), and the
        ``"paper"`` ⌈kθ⌉ probe is recall-incomplete below θ = 0.5, so the
        check runs the recall-complete ``"safe"`` probe.
        """
        if "overlap" not in self.report.methods:
            return
        for pair in self.report.pairs:
            counts = []
            for theta in self.thetas:
                config = AlignConfig(
                    method="overlap", engine=engine, theta=theta, probe="safe"
                )
                result = _run_cell(config, self.graphs[pair[0]], self.graphs[pair[1]])
                self.report.cells += 1
                if isinstance(result, Refusal):
                    self._diverge(
                        "theta_monotonicity", "overlap",
                        f"overlap refused at θ={theta}: {result.render()} "
                        f"(engine={engine})",
                        pair=pair,
                    )
                    break
                counts.append(result.trace.literal_matches)
            for (low, low_count), (high, high_count) in zip(
                zip(self.thetas, counts), zip(self.thetas[1:], counts[1:])
            ):
                if high_count > low_count:
                    self._diverge(
                        "theta_monotonicity", "overlap",
                        f"literal matches grew from {low_count} (θ={low}) to "
                        f"{high_count} (θ={high}) (engine={engine})",
                        pair=pair,
                    )

    def check_incremental_parity(self, method: str, engine: str,
                                 results: list, reports: list) -> None:
        """Incremental chains must reproduce the from-scratch runs.

        The whole history is re-aligned through ``Aligner(...,
        incremental=True).align_chain`` with the generator's
        identity-preserving per-step deltas, so every consecutive pair's
        partition is *maintained* from its predecessor's fixpoint
        (:mod:`repro.core.maintain`) rather than refined from scratch.
        For each pair the maintained partition must be equivalent to the
        batch one and the rendered report byte-identical.  Methods that
        refuse the scenario are covered by the refusal-consistency axes
        and skipped here.
        """
        if any(isinstance(outcome, Refusal) for outcome in results):
            return
        config = AlignConfig(method=method, engine=engine, incremental=True)
        changes = [
            self.generator.version_changes(index)
            for index in range(len(self.graphs) - 1)
        ]
        try:
            chain = Aligner(config).align_chain(self.graphs, changes=changes)
        except Exception as error:  # reprolint: disable=broad-except  # any crash is a divergence
            self._diverge(
                "incremental_parity", method,
                f"incremental chain raised {type(error).__name__}: {error} "
                f"(engine={engine})",
            )
            return
        self.report.cells += len(chain)
        for index, (maintained, batch, expected) in enumerate(
            zip(chain, results, reports)
        ):
            pair = self.report.pairs[index]
            if hasattr(maintained, "partition") and hasattr(batch, "partition"):
                if not maintained.partition.equivalent_to(batch.partition):
                    self._diverge(
                        "incremental_parity", method,
                        f"maintained partition differs from from-scratch "
                        f"(engine={engine})",
                        pair=pair,
                    )
                    continue
            if maintained.report(config).to_json() != expected.to_json():
                self._diverge(
                    "incremental_parity", method,
                    f"incremental report differs byte-wise from the "
                    f"from-scratch run (engine={engine})",
                    pair=pair,
                )

    def check_persistence_parity(self) -> None:
        """Saved-and-reloaded stores must reproduce the in-memory run.

        The scenario's history is wrapped in a
        :class:`~repro.experiments.store.VersionStore`, persisted through
        **every** backend — an in-process ``MemoryBackend`` and a
        ``DiskBackend`` under a temporary directory — and loaded back.
        Three invariants per backend: the reloaded CSR blocks are
        bit-identical to the originals (the flat int64 block files /
        memory-maps lose nothing), Figure 11's store cells give the
        in-memory store's rows on every engine (its dense cells read the
        reloaded blocks, whose dense ids must be the reloaded graphs'
        union ids), and re-aligning the reloaded graphs
        yields byte-identical report JSON on every method × pair (the
        canonical sorted N-Triples round trip preserves alignment
        semantics exactly).  Refusals must stay consistent in *type*:
        the diagnostic may name a different member of the same blank
        cycle, because node traversal order is legitimately not part of
        the persisted archive (canonical N-Triples sorts the triples).
        """
        import tempfile

        from ..experiments.persist import DiskBackend, MemoryBackend
        from ..experiments.store import VersionStore

        def rendered(outcome, config) -> str:
            if isinstance(outcome, Refusal):
                return f"refusal:{outcome.error_type}"
            return outcome.report(config).to_json()

        engine = self.report.engines[0]
        baseline: dict[str, list[str]] = {}
        for method in self.report.methods:
            config = AlignConfig(method=method, engine=engine)
            baseline[method] = [
                rendered(outcome, config)
                for outcome in self._results(method, engine)
            ]
            self.report.cells += len(self.report.pairs)

        pairs = list(self.report.pairs)

        def store_rows(store, engine: str) -> str:
            # Figure 11's cells read the store's own CSR blocks, which the
            # re-alignments below never touch.
            try:
                return repr(run_store_cells(
                    store, method_counts_cell, pairs,
                    config=AlignConfig(engine=engine), jobs=1,
                ))
            except ReproError as error:
                return f"refusal:{type(error).__name__}"

        source = VersionStore(self.generator)
        source.prepare(summaries=True, csr=True)
        baseline_rows = {
            engine: store_rows(source, engine) for engine in self.report.engines
        }
        with tempfile.TemporaryDirectory() as tmp:
            backends = {
                "memory": MemoryBackend(),
                "disk": DiskBackend(os.path.join(tmp, "store")),
            }
            for label, backend in backends.items():
                source.save(backend)
                loaded = VersionStore.load(backend)
                for version in range(source.versions):
                    original = source.graph(version).csr()
                    reloaded = loaded.graph(version).csr()
                    if (
                        list(original.nodes) != list(reloaded.nodes)
                        or original.out_offsets.tobytes()
                        != reloaded.out_offsets.tobytes()
                        or original.out_predicates.tobytes()
                        != reloaded.out_predicates.tobytes()
                        or original.out_objects.tobytes()
                        != reloaded.out_objects.tobytes()
                    ):
                        self._diverge(
                            "persistence_parity", "csr",
                            f"CSR block of version {version} is not "
                            f"bit-identical after the {label} round trip",
                        )
                for cell_engine, rows in baseline_rows.items():
                    self.report.cells += len(pairs)
                    if store_rows(loaded, cell_engine) != rows:
                        self._diverge(
                            "persistence_parity", "store_cells",
                            f"Figure 11 store cells of the {label}-backend "
                            f"round trip differ from the in-memory store's "
                            f"(engine={cell_engine})",
                        )
                graphs = loaded.graphs()
                for method in self.report.methods:
                    config = AlignConfig(method=method, engine=engine)
                    for index, pair in enumerate(self.report.pairs):
                        outcome = _run_cell(
                            config, graphs[pair[0]], graphs[pair[1]]
                        )
                        self.report.cells += 1
                        if rendered(outcome, config) != baseline[method][index]:
                            self._diverge(
                                "persistence_parity", method,
                                f"report from the {label}-backend round trip "
                                f"differs byte-wise from the in-memory run "
                                f"(engine={engine})",
                                pair=pair,
                            )

    def check_fault_tolerance(self) -> None:
        """Injected-fault runs must reproduce the fault-free run's bytes.

        The resilience counterpart of persistence parity (ISSUE 8
        acceptance): the scenario's history is executed under seeded
        :class:`~repro.robustness.faults.FaultPlan`\\ s covering every
        recovery path — worker SIGKILL recovered by retry, worker
        SIGKILL on *every* attempt (degrades to serial, recorded as a
        :class:`DegradationEvent`), transient backend I/O errors
        recovered by read retry, and a real on-disk bit-flip detected by
        the CRC32 layer and healed by quarantine-and-rebuild.  For every
        plan the invariants are: the run **completes** (via retry or
        recorded degradation), its results and final AlignmentReports
        are **byte-identical** to the fault-free run, and **zero**
        ``/dev/shm`` segments leak.
        """
        import tempfile

        from ..experiments import cells
        from ..experiments.parallel import run_store_cells
        from ..experiments.persist import DiskBackend
        from ..experiments.shm import list_segments
        from ..experiments.store import VersionStore
        from ..robustness import FaultPlan, FaultSpec, drain_events, inject

        pairs = list(self.report.pairs)
        config = AlignConfig(retries=2, cell_timeout=None)

        # ---- pool plans: crash recovery and degradation ---------------
        store = VersionStore(self.generator)
        store.prepare(summaries=True, tokens=("trivial", "deblank"), csr=True)
        clean = run_store_cells(
            store, cells.edge_ratio_cell, pairs, jobs=2, config=config,
            force=True,
        )
        clean_bytes = json.dumps(clean, sort_keys=True)
        self.report.cells += len(pairs)
        pool_plans = {
            "worker_sigkill": (
                FaultPlan(
                    name="worker_sigkill",
                    specs=(FaultSpec(site="worker.cell", kind="sigkill",
                                     attempts=(0,), times=1),),
                ),
                "recovers",
            ),
            "worker_sigkill_exhausted": (
                FaultPlan(
                    name="worker_sigkill_exhausted",
                    specs=(FaultSpec(site="worker.cell", kind="sigkill",
                                     index=0, attempts=None, times=None),),
                ),
                "degrades",
            ),
        }
        for name, (plan, expectation) in pool_plans.items():
            drain_events()
            events: list = []
            try:
                with inject(plan):
                    faulted = run_store_cells(
                        store, cells.edge_ratio_cell, pairs, jobs=2,
                        config=config, force=True, events=events,
                    )
            except Exception as error:  # reprolint: disable=broad-except  # any crash is a divergence
                self._diverge(
                    "fault_tolerance", name,
                    f"run under plan {name!r} did not complete: "
                    f"{type(error).__name__}: {error}",
                )
                continue
            self.report.cells += len(pairs)
            if json.dumps(faulted, sort_keys=True) != clean_bytes:
                self._diverge(
                    "fault_tolerance", name,
                    f"results under plan {name!r} differ byte-wise from "
                    f"the fault-free run",
                )
            if expectation == "degrades" and not events:
                self._diverge(
                    "fault_tolerance", name,
                    f"plan {name!r} exhausted the retry budget but no "
                    f"DegradationEvent was recorded",
                )
            if expectation == "recovers" and events:
                self._diverge(
                    "fault_tolerance", name,
                    f"plan {name!r} should be absorbed by the retry "
                    f"budget, but the run degraded: "
                    f"{[e.to_dict() for e in events]}",
                )
            leaked = list_segments()
            if leaked:
                self._diverge(
                    "fault_tolerance", name,
                    f"{len(leaked)} leaked /dev/shm segment(s) after "
                    f"plan {name!r}: {leaked}",
                )

        # ---- backend plans: transient I/O and real corruption ---------
        engine = self.report.engines[0]
        method = "hybrid" if "hybrid" in self.report.methods else self.report.methods[0]
        align_config = AlignConfig(method=method, engine=engine)

        def reports_from(loaded_store) -> list[str]:
            graphs = loaded_store.graphs()
            rendered = []
            for source, target in pairs:
                outcome = _run_cell(align_config, graphs[source], graphs[target])
                self.report.cells += 1
                if isinstance(outcome, Refusal):
                    rendered.append(f"refusal:{outcome.error_type}")
                else:
                    rendered.append(outcome.report(align_config).to_json())
            return rendered

        with tempfile.TemporaryDirectory() as tmp:
            root = os.path.join(tmp, "store")
            store.save(root)
            baseline_reports = reports_from(VersionStore.load(root))

            transient = FaultPlan(
                name="transient_io",
                specs=(FaultSpec(site="backend.read", kind="oserror",
                                 key="graphs/", times=2, attempts=None),),
            )
            try:
                with inject(transient):
                    faulted_reports = reports_from(VersionStore.load(root))
            except Exception as error:  # reprolint: disable=broad-except  # any crash is a divergence
                self._diverge(
                    "fault_tolerance", "transient_io",
                    f"load under transient I/O faults did not complete: "
                    f"{type(error).__name__}: {error}",
                )
            else:
                if faulted_reports != baseline_reports:
                    self._diverge(
                        "fault_tolerance", "transient_io",
                        "reports after transient-I/O recovery differ "
                        "byte-wise from the fault-free run",
                    )

            # Real durable corruption: flip one byte of a CSR block file
            # on disk.  The CRC32 layer must detect it, load must
            # quarantine the artifact and rebuild it from the graphs,
            # and the reports must not change.
            backend = DiskBackend.open(root)
            entry = backend._arrays.get("csr/0/offsets")
            if entry is not None:
                victim = os.path.join(root, entry["file"])
                with open(victim, "r+b") as handle:
                    first = handle.read(1)
                    handle.seek(0)
                    handle.write(bytes([first[0] ^ 0xFF]))
                try:
                    corrupted = VersionStore.load(root)
                    corrupt_reports = reports_from(corrupted)
                except Exception as error:  # reprolint: disable=broad-except  # any crash is a divergence
                    self._diverge(
                        "fault_tolerance", "corrupt_block",
                        f"load of a bit-flipped archive did not complete: "
                        f"{type(error).__name__}: {error}",
                    )
                else:
                    if not corrupted.quarantined:
                        self._diverge(
                            "fault_tolerance", "corrupt_block",
                            "bit-flipped CSR block was not detected/"
                            "quarantined at load time",
                        )
                    if corrupt_reports != baseline_reports:
                        self._diverge(
                            "fault_tolerance", "corrupt_block",
                            "reports after quarantine-and-rebuild differ "
                            "byte-wise from the fault-free run",
                        )

    def check_kbisim(self) -> None:
        """The k-bisimulation family's boundedness sweep (``--axis kbisim``).

        Per pair and per family member (``kbisim`` anchored on the full
        ``bisim`` fixpoint, ``kbisim_deblank`` on ``deblank``), the
        round bound is swept over ``k = 0 .. diameter + 1`` of the
        combined graph and four invariants are pinned:

        * **engine parity** — reference/dense agree byte-wise at every k;
        * **k-monotonicity** — the partition at ``k+1`` refines the
          partition at ``k``, so the aligned pair set at ``k+1`` is a
          subset of the one at ``k``;
        * **hierarchy containment** — the anchor fixpoint's alignment
          (and every registered floor's) is contained in the bounded
          method's at every ``k``;
        * **convergence** — at ``k >= diameter`` the report is
          byte-identical to the anchor's modulo the method-identity
          markers (:func:`_family_bytes`).
        """
        from ..core.ksignature import graph_diameter

        families = (
            ("kbisim", "bisim", ("bisim",)),
            ("kbisim_deblank", "deblank", ("trivial", "deblank")),
        )
        base_engine = self.report.engines[0]
        for pair in self.report.pairs:
            source, target = self.graphs[pair[0]], self.graphs[pair[1]]
            for method, anchor, floors in families:
                if method not in self.report.methods:
                    continue
                named: dict = {}
                refused = False
                for other in dict.fromkeys((anchor, *floors)):
                    outcome = _run_cell(
                        AlignConfig(method=other, engine=base_engine),
                        source, target,
                    )
                    self.report.cells += 1
                    if isinstance(outcome, Refusal):
                        self._diverge(
                            "kbisim_axis", other,
                            f"anchor/floor method refused: {outcome.render()}",
                            pair=pair,
                        )
                        refused = True
                    named[other] = outcome
                if refused:
                    continue
                diameter = graph_diameter(named[anchor].graph)
                ks = tuple(range(diameter + 2))
                swept: dict[str, dict[int, tuple]] = {}
                crashed = False
                for engine in self.report.engines:
                    swept[engine] = {}
                    for k in ks:
                        config = AlignConfig(method=method, engine=engine, k=k)
                        outcome = _run_cell(config, source, target)
                        self.report.cells += 1
                        if isinstance(outcome, Refusal):
                            self._diverge(
                                "kbisim_axis", method,
                                f"refused: {outcome.render()} "
                                f"(engine={engine})",
                                pair=pair, k=k,
                            )
                            crashed = True
                            continue
                        swept[engine][k] = (outcome, outcome.report(config))
                if crashed:
                    continue
                for engine in self.report.engines[1:]:
                    for k in ks:
                        if _parity_bytes(swept[base_engine][k][1]) != (
                            _parity_bytes(swept[engine][k][1])
                        ):
                            self._diverge(
                                "kbisim_engine_parity", method,
                                f"engines {base_engine!r} and {engine!r} "
                                f"disagree byte-wise",
                                pair=pair, k=k,
                            )
                base = swept[base_engine]
                for k in ks[:-1]:
                    coarse, fine = base[k][0], base[k + 1][0]
                    if not fine.partition.finer_than(coarse.partition):
                        self._diverge(
                            "kbisim_monotonicity", method,
                            f"partition at k={k + 1} does not refine the "
                            f"partition at k={k}",
                            pair=pair, k=k,
                        )
                    grown = set(fine.alignment.pairs()) - set(
                        coarse.alignment.pairs()
                    )
                    if grown:
                        self._diverge(
                            "kbisim_monotonicity", method,
                            f"{len(grown)} pair(s) aligned at k={k + 1} but "
                            f"not at k={k}",
                            pair=pair, k=k,
                        )
                for floor in (anchor, *floors):
                    floor_pairs = set(named[floor].alignment.pairs())
                    for k in ks:
                        missing = floor_pairs - set(base[k][0].alignment.pairs())
                        if missing:
                            self._diverge(
                                "kbisim_hierarchy", method,
                                f"{len(missing)} pair(s) aligned by {floor!r} "
                                f"but not by {method!r}",
                                pair=pair, k=k,
                            )
                anchor_bytes = _family_bytes(
                    named[anchor].report(
                        AlignConfig(method=anchor, engine=base_engine)
                    )
                )
                for k in (diameter, diameter + 1):
                    if _family_bytes(base[k][1]) != anchor_bytes:
                        self._diverge(
                            "kbisim_convergence", method,
                            f"alignment at k={k} (diameter {diameter}) is "
                            f"not byte-identical to the {anchor!r} fixpoint",
                            pair=pair, k=k,
                        )

    def check_report_roundtrip(self, method: str,
                               reports: Iterable[AlignmentReport]) -> None:
        for index, report in enumerate(reports):
            if isinstance(report, Refusal):
                continue
            problems = AlignmentReport.validate(report.to_dict())
            if problems:
                self._diverge(
                    "report_roundtrip", method,
                    f"schema violations: {problems}",
                    pair=self.report.pairs[index],
                )
                continue
            if AlignmentReport.from_json(report.to_json()) != report:
                self._diverge(
                    "report_roundtrip", method,
                    "from_json(to_json()) is not the identity",
                    pair=self.report.pairs[index],
                )

    # ------------------------------------------------------------------
    def run(self) -> DifferentialReport:
        if self.axis == "persistence":
            self.check_persistence_parity()
            return self.report
        if self.axis == "faults":
            self.check_fault_tolerance()
            return self.report
        if self.axis == "kbisim":
            self.check_kbisim()
            return self.report
        full = self.axis == "all"
        all_results: dict[str, dict[str, list]] = {
            engine: {} for engine in self.report.engines
        }
        for method in self.report.methods:
            by_engine: dict[str, list] = {}
            for engine in self.report.engines:
                config = AlignConfig(method=method, engine=engine)
                results = self._results(method, engine)
                all_results[engine][method] = results
                self.report.cells += len(results)
                for index, outcome in enumerate(results):
                    if not isinstance(outcome, Refusal):
                        continue
                    self.report.refusals += 1
                    if not outcome.expected:
                        self._diverge(
                            "crash", method,
                            f"{outcome.render()} (engine={engine})",
                            pair=self.report.pairs[index],
                        )
                reports = [
                    r if isinstance(r, Refusal) else r.report(config)
                    for r in results
                ]
                by_engine[engine] = reports
                if full:
                    self.check_well_formedness(method, engine, results)
                    self.check_report_roundtrip(method, reports)
                    self.check_jobs_determinism(
                        method, engine,
                        [
                            r.render() if isinstance(r, Refusal) else r.to_json()
                            for r in reports
                        ],
                    )
                self.check_incremental_parity(method, engine, results, reports)
            if full:
                self.check_engine_parity(method, by_engine)
        if full:
            for engine in self.report.engines:
                self.check_hierarchy(engine, all_results[engine])
                self.check_theta_monotonicity(engine)
            self.check_persistence_parity()
        return self.report


def run_differential(
    config: SyntheticConfig,
    name: str = "scenario",
    methods: Sequence[str] | None = None,
    engines: Sequence[str] = DEFAULT_ENGINES,
    jobs: Sequence[int] = DEFAULT_JOBS,
    thetas: Sequence[float] = DEFAULT_THETAS,
    shared: bool = True,
    axis: str = "all",
) -> DifferentialReport:
    """Run the full differential oracle on one scenario.

    *methods* defaults to every registered
    :class:`~repro.align.registry.MethodSpec` (baselines included);
    *shared* reuses the process-wide memoized generator so repeated runs
    (tests, figure code, the CLI) build each history once; *axis*
    selects the invariant set (:data:`AXES` — ``"incremental"`` runs
    only the incremental-vs-scratch parity check against the serial
    baseline).
    """
    if methods is None:
        methods = method_names()
    oracle = _ScenarioOracle(
        name=name,
        config=config,
        methods=methods,
        engines=engines,
        jobs=jobs,
        thetas=thetas,
        shared=shared,
        axis=axis,
    )
    return oracle.run()


def run_scenarios(
    scenarios: dict[str, SyntheticConfig] | None = None,
    **kwargs,
) -> dict[str, DifferentialReport]:
    """Run the oracle over a scenario matrix (default: the pinned seeds)."""
    if scenarios is None:
        scenarios = SCENARIOS
    return {
        name: run_differential(config, name=name, **kwargs)
        for name, config in scenarios.items()
    }


# ----------------------------------------------------------------------
# CI entry point
# ----------------------------------------------------------------------
def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.testing.differential`` — the CI oracle job.

    Runs the pinned scenario matrix, writes one artifact JSON per
    failing scenario (seed + config + divergences) under ``--out``, and
    appends per-scenario generator timings to ``--bench``.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.differential",
        description="differential oracle over the pinned synthetic scenarios",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        help="run only this scenario (repeatable; default: all)",
    )
    parser.add_argument(
        "--out",
        default="results/differential",
        help="directory for failing-scenario artifacts (seed + config JSON)",
    )
    parser.add_argument(
        "--bench",
        default=None,
        help="append generator timings to this bench.json file",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        nargs="*",
        default=list(DEFAULT_JOBS),
        help="job counts the determinism check compares (default: 1 2)",
    )
    parser.add_argument(
        "--axis",
        choices=AXES,
        default="all",
        help="invariant set to run (incremental = only the "
        "incremental-vs-scratch parity check; persistence = only the "
        "save/load backend parity check; faults = only the seeded "
        "fault-injection parity check; kbisim = only the k-bisimulation "
        "boundedness sweep)",
    )
    args = parser.parse_args(argv)

    selected = {
        name: config
        for name, config in SCENARIOS.items()
        if not args.scenario or name in args.scenario
    }
    failures = 0
    for name, config in selected.items():
        try:
            report = run_differential(
                config, name=name, jobs=args.jobs, axis=args.axis
            )
        except Exception as error:  # reprolint: disable=broad-except
            # Last-ditch net (e.g. a generator bug): the artifact with the
            # scenario's seed + config must still reach CI.
            failures += 1
            os.makedirs(args.out, exist_ok=True)
            artifact = os.path.join(args.out, f"{name}.json")
            atomic_write_text(
                artifact,
                json.dumps(
                    {
                        "schema": "repro/differential-report",
                        "version": 1,
                        "scenario": name,
                        "seed": config.seed,
                        "config": config.to_dict(),
                        "ok": False,
                        "error": f"{type(error).__name__}: {error}",
                    },
                    indent=2,
                    sort_keys=True,
                )
                + "\n",
            )
            print(f"{name}: oracle crashed — {type(error).__name__}: {error}")
            print(f"  artifact written to {artifact}")
            continue
        print(report.summary())
        if args.bench:
            append_bench_entry(
                args.bench, f"synthetic/generate/{name}",
                report.generate_seconds,
            )
        if not report.ok:
            failures += 1
            os.makedirs(args.out, exist_ok=True)
            artifact = os.path.join(args.out, f"{name}.json")
            atomic_write_text(
                artifact,
                json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            )
            for divergence in report.divergences:
                print("  " + divergence.render())
            print(f"  artifact written to {artifact}")
    if failures:
        print(f"{failures} scenario(s) diverged")
        return 1
    print(f"all {len(selected)} scenario(s) passed the differential oracle")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
