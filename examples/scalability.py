"""Scalability: alignment running time against input size (Figure 16 scenario).

Generates growing DBpedia-category-like graphs and times the three main
methods on each consecutive pair — the same cell Figure 16 runs — then
prints the time-per-triple so the roughly-linear trend is visible.  Pass
a larger scale to stress it.

Run with::

    python examples/scalability.py [scale] [engine] [jobs]

where *engine* is ``reference`` (default) or ``dense`` — the flat-array
refinement engine documented in docs/performance.md — and *jobs* shards
the version pairs over that many worker processes (``0`` = one per CPU)
when the pairs are big enough to pay for a pool.  With ``jobs > 1`` the
whole run finishes faster while the per-pair times are still measured
inside their worker; under CPU contention they can read slightly high,
so keep ``jobs = 1`` for clean per-pair numbers.
"""

import sys
import time

from repro.align import AlignConfig
from repro.evaluation import render_table
from repro.experiments.cells import method_timings_cell
from repro.experiments.parallel import run_store_cells
from repro.experiments.store import VersionStore


def main(scale: float = 1.0, engine: str = "reference", jobs: int = 1) -> None:
    store = VersionStore.shared("dbpedia", scale=scale, seed=30, versions=6)
    store.prepare(csr=engine == "dense")
    graphs = store.graphs()
    print(f"{len(graphs)} versions, "
          f"{graphs[0].num_nodes} → {graphs[-1].num_nodes} nodes\n")

    started = time.perf_counter()
    rows = run_store_cells(
        store, method_timings_cell, range(len(graphs) - 1),
        jobs=jobs, config=AlignConfig(engine=engine),
    )
    elapsed = time.perf_counter() - started
    print(render_table(
        ["pair", "triples", "trivial (s)", "hybrid (s)", "overlap (s)", "overlap µs/triple"],
        [
            [
                row["pair"],
                row["triples"],
                row["trivial_s"],
                row["hybrid_s"],
                row["overlap_s"],
                round(1e6 * row["overlap_s"] / row["triples"], 2),
            ]
            for row in rows
        ],
    ))
    print(f"\nwall-clock for all pairs: {elapsed:.2f}s (jobs={jobs})")
    print("The µs/triple column staying roughly flat is the paper's "
          "Figure 16 claim: time grows proportionally to input size.")


if __name__ == "__main__":
    main(
        float(sys.argv[1]) if len(sys.argv) > 1 else 1.0,
        sys.argv[2] if len(sys.argv) > 2 else "reference",
        int(sys.argv[3]) if len(sys.argv) > 3 else 1,
    )
