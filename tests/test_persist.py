"""Persistence backends and the VersionStore save/load round trip.

MemoryBackend and DiskBackend speak one interface; a store persisted
through either must come back with bit-identical CSR blocks and
byte-identical reports — the differential oracle re-checks the same
contract per scenario (``--axis persistence``), these tests pin the
backend mechanics (layout, read-only guard, identity pinning).
"""

from __future__ import annotations

import copyreg
import io
import json
import os
import pickle

import pytest

from repro.align import AlignConfig, Aligner
from repro.datasets.synthetic import SCENARIOS, SyntheticGenerator
from repro.exceptions import CorruptStoreError, ExperimentError
from repro.experiments.persist import (
    MANIFEST_NAME,
    DiskBackend,
    MemoryBackend,
    describe,
    iter_report_keys,
    resolve_backend,
)
from repro.experiments.cells import (
    edge_ratio_cell,
    kbisim_counts_cell,
    method_counts_cell,
)
from repro.experiments.parallel import run_store_cells
from repro.experiments.store import VersionStore
from repro.model.labels import Literal, URI
from repro.model.rdf import BlankNode

numpy = pytest.importorskip("numpy")


@pytest.fixture(params=["memory", "disk"])
def backend(request, tmp_path):
    if request.param == "memory":
        return MemoryBackend()
    return DiskBackend(tmp_path / "store")


@pytest.fixture
def store() -> VersionStore:
    store = VersionStore(SyntheticGenerator.shared(SCENARIOS["small_er"]))
    store.prepare(summaries=True, csr=True)
    return store


class TestBackendInterface:
    def test_blob_roundtrip(self, backend):
        backend.put_blob("graphs/0.nt", b"<a> <b> <c> .\n")
        backend.flush()
        assert backend.get_blob("graphs/0.nt") == b"<a> <b> <c> .\n"
        assert backend.get_blob("missing") is None

    def test_array_roundtrip_readonly(self, backend):
        payload = numpy.array([1, 5, 2**40, -3], dtype=numpy.int64)
        backend.put_array("csr/0/offsets", payload)
        backend.flush()
        view = backend.get_array("csr/0/offsets")
        assert view.tobytes() == payload.tobytes()
        with pytest.raises((ValueError, TypeError)):
            view[0] = 99
        assert backend.get_array("missing") is None

    def test_empty_array(self, backend):
        backend.put_array("csr/0/objects", numpy.empty(0, dtype=numpy.int64))
        backend.flush()
        assert len(backend.get_array("csr/0/objects")) == 0

    def test_json_roundtrip(self, backend):
        identity = {"family": "efo", "scale": 0.35, "versions": 10}
        backend.put_json("store/identity", identity)
        backend.flush()
        assert backend.get_json("store/identity") == identity

    def test_overwrite_key(self, backend):
        backend.put_blob("graphs/0.nt", b"old")
        backend.put_blob("graphs/0.nt", b"new bytes")
        backend.flush()
        assert backend.get_blob("graphs/0.nt") == b"new bytes"

    def test_keys_planes(self, backend):
        backend.put_blob("b/one", b"x")
        backend.put_array("a/one", numpy.array([1], dtype=numpy.int64))
        backend.put_json("j/one", 1)
        assert backend.keys() == {
            "blob": ["b/one"], "array": ["a/one"], "json": ["j/one"],
        }


class TestDiskLayout:
    def test_layout_and_reopen(self, tmp_path):
        root = tmp_path / "archive"
        backend = DiskBackend(root)
        backend.put_blob("graphs/0.nt", b"bytes")
        backend.put_array("csr/0/offsets", numpy.array([0, 1], dtype=numpy.int64))
        backend.put_json("store/versions", 1)
        backend.flush()
        assert sorted(os.listdir(root)) == ["blobs", "blocks", MANIFEST_NAME]
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        assert manifest["schema"] == "repro/version-store"

        reopened = DiskBackend.open(root)
        assert reopened.readonly
        assert reopened.get_blob("graphs/0.nt") == b"bytes"
        assert reopened.get_json("store/versions") == 1

    def test_readonly_guard(self, tmp_path):
        root = tmp_path / "archive"
        writer = DiskBackend(root)
        writer.put_json("store/versions", 1)
        writer.flush()
        reader = DiskBackend.open(root)
        with pytest.raises(ExperimentError, match="read-only"):
            reader.put_blob("x", b"y")

    def test_open_missing_directory_raises(self, tmp_path):
        with pytest.raises(ExperimentError, match="no persisted store"):
            DiskBackend.open(tmp_path / "nowhere")

    def test_resolve_backend(self, tmp_path):
        resolved = resolve_backend(tmp_path / "fresh")
        assert isinstance(resolved, DiskBackend) and not resolved.readonly
        memory = MemoryBackend()
        assert resolve_backend(memory) is memory
        with pytest.raises(ExperimentError, match="backend interface"):
            resolve_backend(object())
        with pytest.raises(ExperimentError):
            resolve_backend(None)


class TestStoreRoundTrip:
    def test_loaded_store_matches_original(self, store, backend):
        store.save(backend)
        loaded = VersionStore.load(backend)
        assert loaded.versions == store.versions
        assert loaded.backend is backend
        for version in range(store.versions):
            original = store.graph(version).csr()
            reloaded = loaded.graph(version).csr()
            assert list(reloaded.nodes) == list(original.nodes)
            assert reloaded.out_offsets.tobytes() == original.out_offsets.tobytes()
            assert (
                reloaded.out_predicates.tobytes()
                == original.out_predicates.tobytes()
            )
            assert reloaded.out_objects.tobytes() == original.out_objects.tobytes()
            # Artifacts came back warm: summaries and edge tokens are hits.
            assert version in loaded._summaries
            assert loaded.edge_tokens(version, "deblank") == store.edge_tokens(
                version, "deblank"
            )

    def test_loaded_store_dense_cells_match_fresh(self, store, backend):
        # Graphs come back reparsed from sorted N-Triples while each block
        # keeps the generator's node order.  Union ids are block dense ids,
        # so the load must put every graph into its block's order, or each
        # dense cell would read another node's adjacency.
        store.save(backend)
        loaded = VersionStore.load(backend)
        assert loaded.quarantined == []
        for version in range(loaded.versions):
            assert loaded.graph(version).csr().nodes == list(
                loaded.graph(version).nodes()
            )
        last = store.versions - 1
        pairs = [(0, 1), (0, last), (1, 1), (last, last)]
        config = AlignConfig(engine="dense")
        fresh = VersionStore(SyntheticGenerator.shared(SCENARIOS["small_er"]))
        for cell in (method_counts_cell, kbisim_counts_cell):
            assert run_store_cells(
                loaded, cell, pairs, config=config, jobs=1
            ) == run_store_cells(fresh, cell, pairs, config=config, jobs=1)

    def test_memory_and_disk_agree_byte_for_byte(self, store, tmp_path):
        memory = MemoryBackend()
        disk = DiskBackend(tmp_path / "store")
        store.save(memory)
        store.save(disk)
        config = AlignConfig(method="deblank")
        reports = []
        for loaded in (VersionStore.load(memory), VersionStore.load(disk)):
            graphs = loaded.graphs()
            reports.append(
                Aligner(config).align(graphs[0], graphs[1]).report(config).to_json()
            )
        assert reports[0] == reports[1]

    def test_identity_pinning(self, store, backend):
        store.identity = {"family": "synthetic_er", "scale": 1.0}
        store.save(backend)
        loaded = VersionStore.load(
            backend, expect={"family": "synthetic_er", "scale": 1.0}
        )
        assert loaded.identity["family"] == "synthetic_er"
        with pytest.raises(ExperimentError, match="identity mismatch"):
            VersionStore.load(backend, expect={"family": "gtopdb"})

    def test_load_empty_backend_raises(self):
        with pytest.raises(ExperimentError, match="no persisted version store"):
            VersionStore.load(MemoryBackend())

    def test_report_roundtrip_and_keys(self, store, backend):
        config = AlignConfig(method="deblank")
        graphs = store.graphs()
        report = Aligner(config).align(graphs[0], graphs[1]).report(config)
        store.save(backend)
        store.put_report("pair-0-1", report, backend=backend)
        assert iter_report_keys(backend) == ["pair-0-1"]
        loaded = VersionStore.load(backend)
        again = loaded.get_report("pair-0-1")
        assert again.to_json() == report.to_json()
        assert loaded.get_report("missing") is None

    def test_describe_lists_identity_and_planes(self, store, backend):
        store.identity = {"family": "synthetic_er", "scale": 1.0}
        store.save(backend)
        lines = describe(backend)
        assert any(line.startswith("store: family=synthetic_er") for line in lines)
        assert any(line.startswith("array  csr/0/offsets") for line in lines)
        assert any(line.startswith("blob   graphs/0.nt") for line in lines)


def _flip_first_byte(path) -> None:
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))


class _DataclassEraPickler(pickle.Pickler):
    """Pickles terms the way the frozen term dataclasses did.

    A slotted dataclass reduced to ``copyreg.__newobj__(cls)`` plus a list
    of its field values, which loading restores with ``BUILD``.
    """

    def reducer_override(self, obj):
        if isinstance(obj, (URI, Literal, BlankNode)):
            return copyreg.__newobj__, (type(obj),), list(obj[1:])
        return NotImplemented


def _dataclass_era_pickle(payload) -> bytes:
    buffer = io.BytesIO()
    _DataclassEraPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(payload)
    return buffer.getvalue()


class TestCorruptionDetection:
    """CRC32 checksums, manifest versioning, quarantine and rebuild."""

    def _saved(self, store, tmp_path):
        root = tmp_path / "archive"
        store.save(DiskBackend(root))
        return root

    def test_manifest_v2_records_checksums(self, store, tmp_path):
        root = self._saved(store, tmp_path)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        assert manifest["version"] == 2
        for table, size_key in (
            (manifest["blobs"], "nbytes"),
            (manifest["arrays"], "count"),
        ):
            assert table, "expected persisted entries"
            for entry in table.values():
                assert isinstance(entry["crc32"], int)
                assert isinstance(entry[size_key], int)

    def test_truncated_manifest_raises(self, store, tmp_path):
        root = self._saved(store, tmp_path)
        full = (root / MANIFEST_NAME).read_text()
        (root / MANIFEST_NAME).write_text(full[: len(full) // 2])
        with pytest.raises(CorruptStoreError, match="manifest"):
            DiskBackend.open(root)

    def test_future_manifest_version_rejected(self, store, tmp_path):
        root = self._saved(store, tmp_path)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["version"] = 99
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ExperimentError, match="version"):
            DiskBackend.open(root)

    def test_v1_manifest_accepted_size_only(self, store, tmp_path):
        # Archives written before checksumming (no crc32, version 1)
        # still open and read; verification falls back to sizes.
        root = self._saved(store, tmp_path)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["version"] = 1
        for table in (manifest["blobs"], manifest["arrays"]):
            for entry in table.values():
                entry.pop("crc32", None)
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        backend = DiskBackend.open(root)
        assert backend.get_blob("graphs/0.nt") is not None
        assert backend.verify() == []

    def test_bitflip_detected_on_read(self, store, tmp_path):
        root = self._saved(store, tmp_path)
        backend = DiskBackend.open(root)
        _flip_first_byte(root / backend._blobs["graphs/0.nt"]["file"])
        with pytest.raises(CorruptStoreError, match="CRC32 mismatch"):
            backend.get_blob("graphs/0.nt")

    def test_truncated_block_detected(self, store, tmp_path):
        root = self._saved(store, tmp_path)
        backend = DiskBackend.open(root)
        path = root / backend._arrays["csr/0/offsets"]["file"]
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CorruptStoreError, match="truncated"):
            backend.get_array("csr/0/offsets")

    def test_verify_checksums_off_skips_the_check(self, store, tmp_path):
        root = self._saved(store, tmp_path)
        backend = DiskBackend.open(root, verify_checksums=False)
        _flip_first_byte(root / backend._blobs["graphs/0.nt"]["file"])
        # Corruption passes through silently — the caller opted out.
        assert backend.get_blob("graphs/0.nt") is not None

    def test_load_keeps_the_backends_checksum_setting(self, store, tmp_path):
        root = self._saved(store, tmp_path)
        backend = DiskBackend.open(root, verify_checksums=False)
        loaded = VersionStore.load(backend)
        assert loaded.backend is backend
        assert backend.verify_checksums is False

    def test_verify_walk_clean_and_corrupt(self, store, tmp_path):
        root = self._saved(store, tmp_path)
        backend = DiskBackend.open(root)
        assert backend.verify() == []
        _flip_first_byte(root / backend._arrays["csr/0/offsets"]["file"])
        problems = backend.verify()
        assert [p["key"] for p in problems] == ["csr/0/offsets"]
        assert "CRC32" in problems[0]["reason"]

    def test_verify_quarantine_moves_files_and_rewrites_manifest(
        self, store, tmp_path
    ):
        root = self._saved(store, tmp_path)
        backend = DiskBackend.open(root)
        corrupt_file = backend._arrays["csr/0/offsets"]["file"]
        _flip_first_byte(root / corrupt_file)
        problems = backend.verify(quarantine=True)
        assert len(problems) == 1
        assert not (root / corrupt_file).exists()
        assert (root / "quarantine" / os.path.basename(corrupt_file)).exists()
        # The rewritten manifest no longer lists the quarantined block
        # and the reopened archive verifies clean.
        reopened = DiskBackend.open(root)
        assert "csr/0/offsets" not in reopened._arrays
        assert reopened.verify() == []

    def test_bitflipped_csr_block_rebuilds_same_reports(self, store, tmp_path):
        # A corrupt derived block is quarantined by VersionStore.load and
        # lazily rebuilt from the graph plane; alignment reports computed
        # from the recovered store are byte-identical to a clean load.
        root = self._saved(store, tmp_path)
        probe = DiskBackend.open(root)
        _flip_first_byte(root / probe._arrays["csr/0/offsets"]["file"])

        def report(loaded) -> str:
            config = AlignConfig(method="deblank")
            graphs = loaded.graphs()
            return (
                Aligner(config).align(graphs[0], graphs[1])
                .report(config).to_json()
            )

        clean_root = self._saved(store, tmp_path / "clean")
        clean = VersionStore.load(DiskBackend.open(clean_root))
        recovered = VersionStore.load(DiskBackend.open(root))
        assert any(
            entry["key"].startswith("csr/0") for entry in recovered.quarantined
        )
        assert clean.quarantined == []
        assert report(recovered) == report(clean)
        # The rebuilt block serves reads again (shape sanity only — node
        # ordering follows the re-parsed graph, not the original).
        rebuilt = recovered.graph(0).csr()
        assert len(rebuilt.nodes) == len(store.graph(0).csr().nodes)

    def test_archive_with_dataclass_era_term_pickles_rebuilds(self, store, tmp_path):
        # An archive saved while terms were dataclasses holds pickles that
        # rebuild each term as ``cls.__new__(cls)`` with no arguments; that
        # raises TypeError now, so load quarantines every such blob and
        # rebuilds it from the graphs, with the same reports and rows.
        root = self._saved(store, tmp_path)
        backend = DiskBackend(root)
        keys = [f"csr/{v}/nodes" for v in range(store.versions)] + [
            "artifacts/summaries", "artifacts/edge_tokens", "artifacts/splits",
        ]
        rewritten = []
        for key in keys:
            blob = backend.get_blob(key)
            old_shape = _dataclass_era_pickle(pickle.loads(blob))
            if old_shape != blob:  # the literal splits hold no terms
                backend.put_blob(key, old_shape)
                rewritten.append(key.removesuffix("/nodes"))
        backend.flush()
        assert "csr/0" in rewritten and "artifacts/edge_tokens" in rewritten
        with pytest.raises(TypeError):
            pickle.loads(backend.get_blob("csr/0/nodes"))

        loaded = VersionStore.load(DiskBackend.open(root))
        assert sorted(entry["key"] for entry in loaded.quarantined) == sorted(rewritten)

        def outputs(source: VersionStore) -> tuple:
            graphs = source.graphs()
            reports = [
                Aligner(config).align(graphs[0], graphs[1]).report(config).to_json()
                for config in (AlignConfig(method="deblank"), AlignConfig(method="hybrid"))
            ]
            pairs = [(0, 1), (0, source.versions - 1), (1, 1)]
            rows = [
                run_store_cells(source, cell, pairs, jobs=1)
                for cell in (edge_ratio_cell, method_counts_cell)
            ]
            return reports, rows

        fresh = VersionStore(SyntheticGenerator.shared(SCENARIOS["small_er"]))
        assert outputs(loaded) == outputs(fresh)

    def test_archive_with_old_shape_edge_tokens_rebuilds(self, store, tmp_path):
        # Edge tokens used to wrap every label as ``("n", label)``; such a
        # set never meets a freshly built one, so an archive holding them
        # must not feed the store.  Dropping the last version's sets makes
        # the store build those fresh, which is where mixing would show.
        root = self._saved(store, tmp_path)
        backend = DiskBackend(root)
        last = store.versions - 1

        def old_token(token):
            return token if type(token) is tuple else ("n", token)

        fresh_tokens = pickle.loads(backend.get_blob("artifacts/edge_tokens"))
        old_tokens = {
            key: frozenset(tuple(old_token(tok) for tok in triple) for triple in triples)
            for key, triples in fresh_tokens.items()
            if key[0] != last
        }
        backend.put_blob(
            "artifacts/edge_tokens",
            pickle.dumps(old_tokens, protocol=pickle.HIGHEST_PROTOCOL),
        )
        backend.flush()

        loaded = VersionStore.load(DiskBackend.open(root))
        assert [entry["key"] for entry in loaded.quarantined] == ["artifacts/edge_tokens"]
        assert "('n', label)" in loaded.quarantined[0]["reason"]
        pairs = [(0, 1), (0, last), (1, 1), (last, last)]
        fresh = VersionStore(SyntheticGenerator.shared(SCENARIOS["small_er"]))
        for cell in (edge_ratio_cell, method_counts_cell):
            assert run_store_cells(loaded, cell, pairs, jobs=1) == run_store_cells(
                fresh, cell, pairs, jobs=1
            )
        assert loaded._edge_tokens == fresh._edge_tokens

    def test_block_listing_other_nodes_rebuilds(self, store, tmp_path):
        # A block whose node list is not the graph's node set cannot be
        # put in the graph's order: it is quarantined and rebuilt, and
        # dense cells still match a fresh store.
        root = self._saved(store, tmp_path)
        backend = DiskBackend(root)
        nodes = pickle.loads(backend.get_blob("csr/0/nodes"))
        nodes[0] = URI("http://example.org/not-in-the-graph")
        backend.put_blob(
            "csr/0/nodes", pickle.dumps(nodes, protocol=pickle.HIGHEST_PROTOCOL)
        )
        backend.flush()

        loaded = VersionStore.load(DiskBackend.open(root))
        assert [entry["key"] for entry in loaded.quarantined] == ["csr/0"]
        assert "lacks" in loaded.quarantined[0]["reason"]
        pairs = [(0, 1), (0, 0)]
        config = AlignConfig(engine="dense")
        fresh = VersionStore(SyntheticGenerator.shared(SCENARIOS["small_er"]))
        assert run_store_cells(
            loaded, method_counts_cell, pairs, config=config, jobs=1
        ) == run_store_cells(fresh, method_counts_cell, pairs, config=config, jobs=1)

    def test_corrupt_graph_blob_is_fatal(self, store, tmp_path):
        # Graphs are the archive's source of truth: nothing to rebuild
        # from, so load refuses instead of degrading.
        root = self._saved(store, tmp_path)
        probe = DiskBackend.open(root)
        _flip_first_byte(root / probe._blobs["graphs/0.nt"]["file"])
        with pytest.raises(CorruptStoreError, match="source of truth"):
            VersionStore.load(DiskBackend.open(root))
