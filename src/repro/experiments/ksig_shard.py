"""Per-node shared-memory sharding of k-signature refinement rounds.

Figure cells shard *whole alignment runs* across workers.  The
k-bisimulation family (:mod:`repro.core.ksignature`) parallelizes one
level deeper: each round's per-node signatures depend only on the
previous round's color buffer, so the subset is split into contiguous
*node shards* and every worker hashes its slice independently (the
embarrassingly parallel shape of Rau et al.).

The run goes through the repo's one pool,
:class:`~repro.experiments.parallel.SharedStorePool`, with a
:class:`SignatureShards` as its published state: the subset-restricted
CSR arrays, published once, plus one writable colors segment the parent
refreshes before each round.  :func:`signature_shard_cell` is mapped
once per round; only ``(lo, hi)`` bounds and the resulting
``(signatures, digests)`` bytes cross the process boundary.  Shard
results merge in subset order, so the interned colors — and hence the
partition — are byte-identical for every ``jobs`` value (the
differential oracle's ``kbisim`` axis pins this).

Any pool failure (start failure, crashed worker, platform without
shared memory) falls back to the serial driver and recomputes from the
initial colors — same interner, same keys, same result.
"""

from __future__ import annotations

from array import array
from typing import Any, Collection, Sequence

from ..core.ksignature import (
    SignatureStats,
    ksignature_colors,
    ksignature_rounds,
    prepare_signature_run,
    shard_signatures,
)
from ..exceptions import ExperimentError, TransientError
from ..model.csr import CSRGraph
from ..model.graph import NodeId, TripleGraph
from ..partition.coloring import Partition
from ..partition.interner import ColorInterner
from .parallel import SharedStorePool, in_worker, usable_cpus
from .shm import attach_index_array, attach_segment, shm_available


def pooled_available() -> bool:
    """Can this process run the signature shard pool?

    Nested pools stay serial (a pool worker must not spawn its own
    pool), and platforms without named shared memory have no segment
    transport to offer.
    """
    return shm_available() and not in_worker()


class SignatureShards:
    """The published state of one pooled k-signature run.

    *arrays* are the subset-restricted CSR arrays ``(subset_ids,
    offsets, predicates, objects)``.  Parent side,
    :meth:`publish_shared` copies them and the current colors into
    segments, the colors into a writable one that :meth:`set_colors`
    refreshes before every round; worker side, :meth:`from_manifest`
    rebuilds the state over zero-copy read-only views of the same
    segments.
    """

    def __init__(self, engine: str, arrays: Sequence[Any], colors: Any) -> None:
        self.engine = engine
        self.arrays = tuple(arrays)
        self.colors = colors
        #: Parent side: the writable colors segment of the live pool.
        self._colors_segment: Any = None

    def set_colors(self, colors: list[int]) -> None:
        """Make *colors* the round's input, in the published segment too."""
        self.colors = colors
        if self._colors_segment is not None:
            self._colors_segment.buf[: len(colors) * 8] = array("q", colors).tobytes()

    def publish_shared(self, registry) -> dict:
        """Publish the arrays and the current colors into *registry*."""
        count = len(self.colors)
        self._colors_segment = registry.create(max(1, count * 8))
        self.set_colors(self.colors)
        return {
            "engine": self.engine,
            "arrays": [registry.publish_array(buffer) for buffer in self.arrays],
            "colors": {"name": self._colors_segment.name, "count": count},
        }

    @classmethod
    def from_manifest(cls, manifest: dict) -> "SignatureShards":
        """Attach a published run inside a pool worker (fork or spawn)."""
        import numpy

        keepalive: list = []
        arrays = [attach_index_array(entry, keepalive) for entry in manifest["arrays"]]
        segment = attach_segment(manifest["colors"])
        keepalive.append(segment)
        colors = numpy.frombuffer(
            segment.buf, dtype=numpy.int64, count=manifest["colors"]["count"]
        )
        colors.flags.writeable = False
        shards = cls(manifest["engine"], arrays, colors)
        shards._shm_keepalive = keepalive  # pins the views' segments
        return shards


def signature_shard_cell(
    shards: SignatureShards, config, bounds: tuple[int, int]
) -> tuple[bytes, bytes]:
    """Hash one contiguous ``[lo, hi)`` shard against the current colors."""
    sigs, digests = shard_signatures(
        shards.colors, *shards.arrays, *bounds, engine=shards.engine
    )
    return sigs.tobytes(), digests


def _shard_bounds(count: int, workers: int) -> list[tuple[int, int]]:
    """Balanced contiguous ``[lo, hi)`` shards covering ``range(count)``."""
    workers = max(1, min(workers, count))
    base, extra = divmod(count, workers)
    bounds: list[tuple[int, int]] = []
    lo = 0
    for index in range(workers):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def pooled_ksignature_partition(
    graph: TripleGraph,
    interner: ColorInterner | None = None,
    k: int = 3,
    engine: str = "reference",
    subset: Collection[NodeId] | None = None,
    partition: Partition | None = None,
    stats: SignatureStats | None = None,
    jobs: int = 2,
) -> Partition:
    """:func:`~repro.core.ksignature.ksignature_partition`, sharded.

    Same contract and byte-identical output; *jobs* selects the worker
    count (``0`` = one per usable CPU).  Signature hashing fans out over
    per-node shards each round; everything else — validation, interning
    order, early exit — is the shared round loop.  On any pool failure
    the run restarts serially from the initial colors (the interner's
    memoization makes the replay byte-identical), so *jobs* can never
    change a result, only wall-clock.
    """
    csr, interner, stats, coloring, colors, subset_ids = prepare_signature_run(
        graph, interner, k, engine, subset, partition, stats
    )
    workers = usable_cpus() if jobs == 0 else jobs
    workers = min(workers, len(subset_ids)) if subset_ids else 1

    outcome = None
    if workers > 1 and pooled_available():
        try:
            outcome = _run_pooled(
                csr, colors, subset_ids, k, interner, engine, stats, workers
            )
        except (TransientError, ExperimentError, OSError, RuntimeError,
                ValueError):
            # Pool start failure, crashed worker, segment trouble or a
            # missing numpy in the workers: degrade to serial.
            stats.class_counts.clear()
    if outcome is None:
        outcome = ksignature_colors(
            csr, colors, subset_ids, k, interner, engine=engine, stats=stats
        )
    final_colors, rounds, converged, classes = outcome
    stats.rounds = rounds
    stats.converged = converged
    stats.final_classes = classes

    coloring.update(zip(csr.nodes, final_colors))
    return Partition(coloring)


def _run_pooled(
    csr: CSRGraph,
    colors: list[int],
    subset_ids: list[int],
    k: int,
    interner: ColorInterner,
    engine: str,
    stats: SignatureStats,
    workers: int,
) -> tuple[list[int], int, bool, int]:
    """One pooled run: publish the shards, map the cell per round, merge."""
    shards = SignatureShards(
        engine, (array("q", subset_ids), *csr.subgraph_pairs(subset_ids)),
        list(colors),
    )
    bounds = _shard_bounds(len(subset_ids), workers)
    with SharedStorePool(shards, jobs=len(bounds)) as pool:

        def batch(current: list[int]) -> tuple[array, bytes]:
            shards.set_colors(current)
            sigs = array("q")
            digests = bytearray()
            for sig_bytes, digest_bytes in pool.map(signature_shard_cell, bounds):
                sigs.frombytes(sig_bytes)
                digests += digest_bytes
            return sigs, bytes(digests)

        return ksignature_rounds(
            list(colors), subset_ids, batch, k, interner, stats=stats
        )
