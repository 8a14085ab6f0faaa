"""Hash-signature k-bisimulation (bounded-round refinement).

The paper's methods iterate ``BisimRefine`` to its *fixpoint*; the
scalable bounded variant of the large-graph literature (Rau, Richerby &
Scherp, *Computing k-Bisimulations for Large Graphs*, 2022) stops after
``k`` rounds and replaces every structural recolor key by a fixed-width
hash **signature**:

    sig_r(n) = hash(color_{r-1}(n), sorted set of packed
                    (pred_color, obj_color) codes of out(n))

Two properties make this the right compute shape:

* the per-node signature depends only on the *previous* round's color
  buffer, so one round is embarrassingly parallel — the shared-memory
  pool (:mod:`repro.experiments.ksig_shard`) shards the subset per node
  and every worker hashes its contiguous slice independently;
* the signature payload *is* the dense engine's recolor key: one
  ``int64`` buffer holding ``[current color, sorted unique
  (p_color << 32) | o_color codes]``.  ``engine="dense"`` hashes the
  output of :func:`repro.core.dense.recolor_payloads` (and so needs
  NumPy); ``engine="reference"`` builds the same bytes in pure Python.
  Reference/dense engines and serial/sharded runs therefore intern
  identical color sequences — *byte-identical* partitions, not merely
  equivalent ones.

Hashing is not free of risk: a signature collision would silently merge
unrelated classes.  Every round therefore verifies the signatures
against full-width (128-bit) digests of the same payloads, **across all
rounds of one run**, and raises
:class:`~repro.exceptions.SignatureCollisionError` on any mismatch —
collisions are detected, never absorbed (the hypothesis suite injects a
deliberately degenerate hasher to pin this).

Because each round's color embeds the previous one, the iterates are
monotonically finer in ``k``, coarser than the full fixpoint, and equal
to it (as a partition) once ``k`` reaches the number of productive
refinement rounds — at most the combined graph's diameter on the pinned
oracle scenarios (the ``kbisim`` differential axis enforces this).
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Callable, Collection, Sequence

from ..exceptions import ExperimentError, PartitionError, SignatureCollisionError
from ..model.csr import CSRGraph, subset_mask
from ..model.graph import NodeId, TripleGraph
from ..partition.coloring import Partition, label_partition
from ..partition.interner import ColorInterner
from .dense import as_int64, recolor_payloads, resolve_refine_engine
from .refinement import FixpointStats, check_interner_covers

#: A signature hasher: payload bytes -> non-negative int (63 bits used).
SignatureHasher = Callable[[bytes], int]

#: Signatures are masked to 63 bits so they always fit a signed int64
#: slot (the shared-memory shard protocol ships them as ``array("q")``).
_SIG_MASK = (1 << 63) - 1

#: Width of the verification digest appended per node by the shards.
DIGEST_BYTES = 16

#: Same packing bound as the dense engine: pair codes pack two colors
#: into one int64, so the interner must stay below 2^31 colors.
_COLOR_LIMIT = 1 << 31


def default_signature_hasher(payload: bytes) -> int:
    """The 63-bit BLAKE2b signature of one recolor-key payload.

    Process-stable (unlike builtin ``hash``), so signatures agree across
    the shard pool's worker processes.
    """
    return int.from_bytes(blake2b(payload, digest_size=8).digest(), "big") & _SIG_MASK


def signature_digest(payload: bytes) -> bytes:
    """The full-width verification digest of one recolor-key payload.

    Always BLAKE2b-128, independent of the (injectable) signature
    hasher — this is what makes a degenerate or colliding hasher
    *detectable* rather than silently class-merging.
    """
    return blake2b(payload, digest_size=DIGEST_BYTES).digest()


@dataclass
class SignatureStats(FixpointStats):
    """Per-run diagnostics of one k-signature refinement.

    :class:`~repro.core.refinement.FixpointStats` plus the bound ``k`` and
    the per-round class counts (``class_counts[r]`` is the number of
    classes after executed round ``r + 1``).  ``converged`` is ``True``
    iff the partition stabilized before exhausting ``k`` rounds — the
    result then *is* the full ``BisimRefine*`` fixpoint restricted to the
    subset.  ``engine`` names the payload engine.
    """

    #: The round bound the run was configured with.
    k: int = 0
    #: Class count after each executed round.
    class_counts: list[int] = field(default_factory=list)


class SignatureVerifier:
    """Cross-round collision detection: signature -> full-width digest.

    The map is global to one refinement run on purpose — colors minted
    in round 2 coexist with round-1 colors in the interner, so a
    cross-round signature collision is exactly as corrupting as an
    intra-round one.
    """

    __slots__ = ("_seen",)

    def __init__(self) -> None:
        self._seen: dict[int, bytes] = {}

    def check(self, sigs: Sequence[int], digests: bytes) -> None:
        """Verify one batch of ``(signature, digest)`` pairs.

        *digests* holds ``DIGEST_BYTES`` per signature, concatenated in
        the same order.  Raises :class:`SignatureCollisionError` when one
        signature maps to two distinct digests.
        """
        seen = self._seen
        width = DIGEST_BYTES
        for position, sig in enumerate(sigs):
            digest = digests[position * width : (position + 1) * width]
            previous = seen.setdefault(int(sig), digest)
            if previous != digest:
                raise SignatureCollisionError(
                    f"k-bisimulation signature collision: signature "
                    f"{int(sig)} covers two distinct recolor keys; "
                    f"rerun with a wider signature hasher"
                )


def _payload_bounds_python(
    colors: Sequence[int],
    subset_ids: Sequence[int],
    sub_offsets: Sequence[int],
    sub_predicates: Sequence[int],
    sub_objects: Sequence[int],
    lo: int,
    hi: int,
) -> tuple[bytes, list[int]]:
    """The reference engine's payload builder for subset positions ``[lo, hi)``.

    Pure Python, byte-identical to :func:`~repro.core.dense.recolor_payloads`:
    one contiguous buffer of the shard's recolor-key payloads plus the
    byte bound of each node's slice, every key laid out as
    ``array("q", [current color, *sorted unique (p_color << 32) |
    o_color codes]).tobytes()``.
    """
    chunks = bytearray()
    bounds = [0]
    for position in range(lo, hi):
        start = sub_offsets[position]
        end = sub_offsets[position + 1]
        block = [
            (colors[sub_predicates[i]] << 32) | colors[sub_objects[i]]
            for i in range(start, end)
        ]
        if end - start > 1:
            block = sorted(set(block))
        block.insert(0, colors[subset_ids[position]])
        chunks += array("q", block).tobytes()
        bounds.append(len(chunks))
    return bytes(chunks), bounds


def shard_signatures(
    colors: Sequence[int],
    subset_ids: Sequence[int],
    sub_offsets: Sequence[int],
    sub_predicates: Sequence[int],
    sub_objects: Sequence[int],
    lo: int,
    hi: int,
    hasher: SignatureHasher | None = None,
    engine: str = "dense",
) -> tuple[array, bytes]:
    """Signatures + verification digests of subset positions ``[lo, hi)``.

    The pure per-shard function shared by the serial driver (one shard
    covering the whole subset) and the shared-memory pool workers (one
    contiguous shard each): ``(array("q") of signatures, concatenated
    DIGEST_BYTES-wide digests)``, both in subset order.  *colors* is the
    previous round's full color buffer (dense-id indexed); the adjacency
    arguments are the subset-restricted CSR arrays
    (:meth:`~repro.model.csr.CSRGraph.subgraph_pairs`).
    """
    if engine == "dense":
        buffer, bounds = recolor_payloads(
            as_int64(colors),
            as_int64(subset_ids)[lo:hi],
            as_int64(sub_offsets)[lo : hi + 1],
            as_int64(sub_predicates),
            as_int64(sub_objects),
        )
    else:
        buffer, bounds = _payload_bounds_python(
            colors, subset_ids, sub_offsets, sub_predicates, sub_objects, lo, hi
        )
    hash_one = hasher if hasher is not None else default_signature_hasher
    sigs = array("q")
    digests = bytearray()
    for position in range(len(bounds) - 1):
        payload = buffer[bounds[position] : bounds[position + 1]]
        sigs.append(hash_one(payload) & _SIG_MASK)
        digests += signature_digest(payload)
    return sigs, bytes(digests)


#: One round's whole-subset signature batch: given the current full
#: color buffer, return ``(signatures, digests)`` in subset order.
SignatureBatch = Callable[[list[int]], "tuple[array, bytes]"]


def ksignature_rounds(
    colors: list[int],
    subset_ids: Sequence[int],
    batch: SignatureBatch,
    k: int,
    interner: ColorInterner,
    stats: SignatureStats | None = None,
) -> tuple[list[int], int, bool, int]:
    """The engine-independent round loop over a dense color buffer.

    Runs up to *k* signature rounds, interning each node's signature as
    its next color (``("ksig", sig)`` keys, in subset order — identical
    across engines and shard widths, so the produced colors are
    byte-identical everywhere).  Early-exits like the fixpoint engines:
    a round that does not grow the class count was a pure recoloring, so
    the *previous* iterate is returned and ``converged`` is ``True``.
    Returns ``(colors, rounds, converged, classes)``.
    """
    verifier = SignatureVerifier()
    current_classes = len(set(colors))
    rounds = 0
    while True:
        if rounds >= k:
            return colors, rounds, False, current_classes
        if len(interner) >= _COLOR_LIMIT:
            raise PartitionError(
                "k-signature refinement exhausted its 2^31 color space"
            )
        sigs, digests = batch(colors)
        verifier.check(sigs, digests)
        intern = interner.intern
        new_colors = list(colors)
        for position, dense_id in enumerate(subset_ids):
            new_colors[dense_id] = intern(("ksig", sigs[position]))
        refined_classes = len(set(new_colors))
        rounds += 1
        if stats is not None:
            stats.class_counts.append(refined_classes)
        if refined_classes == current_classes:
            # A pure recoloring: the previous iterate already was the
            # (subset-restricted) fixpoint.
            return colors, rounds, True, current_classes
        colors = new_colors
        current_classes = refined_classes


def ksignature_colors(
    csr: CSRGraph,
    colors: list[int],
    subset_ids: Sequence[int],
    k: int,
    interner: ColorInterner,
    hasher: SignatureHasher | None = None,
    engine: str = "reference",
    stats: SignatureStats | None = None,
) -> tuple[list[int], int, bool, int]:
    """Serial k-signature refinement directly over a dense color buffer.

    The low-level entry point mirroring
    :func:`~repro.core.dense.refine_colors`: *subset_ids* must be dense
    ids sorted ascending (:func:`~repro.model.csr.subset_mask`).
    """
    sub_offsets, sub_predicates, sub_objects = csr.subgraph_pairs(list(subset_ids))
    num_subset = len(subset_ids)

    def batch(current: list[int]) -> tuple[array, bytes]:
        return shard_signatures(
            current, subset_ids, sub_offsets, sub_predicates, sub_objects,
            0, num_subset, hasher=hasher, engine=engine,
        )

    return ksignature_rounds(
        list(colors), subset_ids, batch, k, interner, stats=stats
    )


def prepare_signature_run(
    graph: TripleGraph,
    interner: ColorInterner | None,
    k: int,
    engine: str,
    subset: Collection[NodeId] | None,
    partition: Partition | None,
    stats: SignatureStats | None,
) -> tuple[
    CSRGraph, ColorInterner, SignatureStats, dict[NodeId, int], list[int], list[int]
]:
    """Validate and stage one k-signature run (shared serial/pooled prep).

    Returns ``(csr, interner, stats, coloring, colors, subset_ids)``, where
    *csr* is *graph*'s cached snapshot — the serial driver
    (:func:`ksignature_partition`) and the shared-memory pool
    (:mod:`repro.experiments.ksig_shard`) both start from exactly this
    state, which is what makes their outputs byte-identical.
    """
    resolve_refine_engine(engine)  # UnknownEngineError; ConfigError without NumPy
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ExperimentError(f"k must be a non-negative integer, got {k!r}")
    if interner is None:
        interner = ColorInterner()
    if partition is None:
        partition = label_partition(graph, interner)
    else:
        check_interner_covers(partition, interner)
    if stats is None:
        stats = SignatureStats()
    stats.engine = engine
    stats.k = k
    csr = graph.csr()

    coloring = partition.as_dict()
    colors = csr.gather_colors(coloring)
    subset_ids = subset_mask(csr, subset)
    stats.initial_classes = partition.num_classes
    return csr, interner, stats, coloring, colors, subset_ids


def ksignature_partition(
    graph: TripleGraph,
    interner: ColorInterner | None = None,
    k: int = 3,
    engine: str = "reference",
    subset: Collection[NodeId] | None = None,
    partition: Partition | None = None,
    stats: SignatureStats | None = None,
    hasher: SignatureHasher | None = None,
) -> Partition:
    """``k`` rounds of hash-signature bisimulation refinement of *graph*.

    Starts from *partition* (default: the label partition, like the
    paper's methods), refines *subset* (default: all nodes) for at most
    *k* rounds and returns the resulting :class:`Partition`.  With
    ``k >= `` the number of productive refinement rounds the result
    equals ``BisimRefine*`` restricted to the subset; smaller ``k``
    yields a sound intermediate refinement (coarser than the fixpoint,
    monotonically finer in ``k``).

    *engine* selects the payload builder (``"dense"``: the dense
    engine's NumPy builder; ``"reference"``: pure Python); both engines
    read *graph*'s cached snapshot and produce byte-identical colors.
    *hasher* replaces the 63-bit BLAKE2b signature hasher (testing
    hook); collisions are detected against full-width digests either
    way and raise :class:`~repro.exceptions.SignatureCollisionError`.
    """
    csr, interner, stats, coloring, colors, subset_ids = prepare_signature_run(
        graph, interner, k, engine, subset, partition, stats
    )
    colors, rounds, converged, classes = ksignature_colors(
        csr, colors, subset_ids, k, interner,
        hasher=hasher, engine=engine, stats=stats,
    )
    stats.rounds = rounds
    stats.converged = converged
    stats.final_classes = classes

    # Materialize, preserving any off-graph extras of the input partition
    # (`coloring` is already a private copy).
    coloring.update(zip(csr.nodes, colors))
    return Partition(coloring)


def graph_diameter(graph: TripleGraph) -> int:
    """The longest finite directed distance over the out-pair relation.

    Edges are ``subject -> predicate`` and ``subject -> object`` — the
    relation signature payloads traverse — so this is the natural bound
    on how far a label distinction can propagate per refinement round.
    Unreachable pairs do not count (the maximum is over *finite*
    distances); an edgeless graph has diameter 0.
    """
    adjacency: dict[NodeId, list[NodeId]] = {}
    for node in graph.nodes():
        targets: list[NodeId] = []
        for predicate, obj in graph.out(node):
            targets.append(predicate)
            targets.append(obj)
        adjacency[node] = targets
    diameter = 0
    for start in adjacency:
        depths: dict[NodeId, int] = {start: 0}
        queue: deque[NodeId] = deque([start])
        while queue:
            node = queue.popleft()
            depth = depths[node] + 1
            for successor in adjacency[node]:
                if successor not in depths:
                    depths[successor] = depth
                    queue.append(successor)
                    if depth > diameter:
                        diameter = depth
    return diameter
