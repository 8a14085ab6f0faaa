"""`reprolint` (repro.analysis): fixture corpus, baseline, suppressions.

Three layers, mirroring the ISSUE's acceptance criteria:

* a **fixture-snippet corpus** — for every shipped rule, a bad snippet
  the rule must flag and a good twin it must pass (the twin is the
  documented fix, so the corpus doubles as executable documentation);
* the **bookkeeping contracts** — suppression comments (line, file,
  ``all``), baseline save/load round-trip, the grandfather/new/stale
  split, and fingerprint stability under unrelated line drift;
* the **meta-test** — the real ``src/repro`` tree lints clean modulo
  the committed baseline, so the repo itself satisfies the invariants
  it checks for (``rdf-align lint`` exits 0 at HEAD).

The violation fixes the rules forced are pinned by behavior tests at
the bottom: atomic-write crash safety for every converted writer, and
hash-seed independence (byte-identical reports across PYTHONHASHSEED
values) for the ``sorted()`` upgrades in the overlap/report paths.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import run_analysis
from repro.analysis.baseline import (
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.framework import (
    Finding,
    parse_module,
    registered_rules,
)
from repro.exceptions import ReproError
from repro.io.atomic import atomic_open, atomic_write_bytes, atomic_write_text

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def lint_snippet(tmp_path, source: str, *, rule: str, path: str = "src/repro/mod.py"):
    """Run one rule over one snippet written at a repo-relative *path*."""
    target = tmp_path / path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    result = run_analysis(os.fspath(tmp_path), [path], rules=[rule])
    return result


def findings_of(result):
    return [(f.rule, f.line) for f in result.findings]


# ----------------------------------------------------------------------
# Fixture corpus: one bad/good pair per rule
# ----------------------------------------------------------------------
class TestUnorderedIteration:
    RULE = "unordered-iteration"

    def test_bad_set_algebra_for_loop(self, tmp_path):
        bad = (
            "def merge(a, b):\n"
            "    out = []\n"
            "    for key in a.keys() | b.keys():\n"
            "        out.append(key)\n"
            "    return out\n"
        )
        result = lint_snippet(tmp_path, bad, rule=self.RULE)
        assert [rule for rule, _ in findings_of(result)] == [self.RULE]

    def test_bad_set_literal_and_comprehension(self, tmp_path):
        bad = (
            "def pairs(s, t):\n"
            "    for pair in {(s, t), (t, s)}:\n"
            "        yield pair\n"
            "    return [x for x in set(s)]\n"
        )
        result = lint_snippet(tmp_path, bad, rule=self.RULE)
        assert len(result.findings) == 2

    def test_good_sorted_wrapper(self, tmp_path):
        good = (
            "def merge(a, b):\n"
            "    out = []\n"
            "    for key in sorted(a.keys() | b.keys()):\n"
            "        out.append(key)\n"
            "    return out\n"
        )
        assert lint_snippet(tmp_path, good, rule=self.RULE).findings == []

    def test_good_order_insensitive_consumers(self, tmp_path):
        # set->set and reductions never leak iteration order.
        good = (
            "def f(s, t):\n"
            "    a = {x for x in s | t}\n"
            "    b = sorted(x for x in s | t)\n"
            "    c = max(x for x in s | t)\n"
            "    return a, b, c\n"
        )
        assert lint_snippet(tmp_path, good, rule=self.RULE).findings == []


class TestUnseededRandom:
    RULE = "unseeded-random"

    def test_bad_global_draws(self, tmp_path):
        bad = (
            "import random\n"
            "def shuffle(items):\n"
            "    random.shuffle(items)\n"
            "    return random.randint(0, 10)\n"
        )
        result = lint_snippet(tmp_path, bad, rule=self.RULE)
        assert len(result.findings) == 2

    def test_bad_from_import_and_numpy_global(self, tmp_path):
        bad = (
            "import numpy\n"
            "from random import shuffle\n"
            "def f(items):\n"
            "    shuffle(items)\n"
            "    return numpy.random.rand(3)\n"
        )
        result = lint_snippet(tmp_path, bad, rule=self.RULE)
        assert len(result.findings) == 2  # the from-import + the numpy draw

    def test_good_seeded_streams(self, tmp_path):
        good = (
            "import random\n"
            "import numpy\n"
            "from random import Random\n"
            "def f(seed):\n"
            "    rng = random.Random(seed)\n"
            "    gen = numpy.random.default_rng(seed)\n"
            "    return rng.random(), gen.integers(0, 10)\n"
        )
        assert lint_snippet(tmp_path, good, rule=self.RULE).findings == []


class TestWallClock:
    RULE = "wall-clock"

    def test_bad_wall_clock_reads(self, tmp_path):
        bad = (
            "import time\n"
            "import datetime\n"
            "def stamp():\n"
            "    return time.time(), datetime.datetime.now()\n"
        )
        result = lint_snippet(tmp_path, bad, rule=self.RULE)
        assert len(result.findings) == 2

    def test_good_perf_counter(self, tmp_path):
        good = (
            "import time\n"
            "def measure(fn):\n"
            "    start = time.perf_counter()\n"
            "    fn()\n"
            "    return time.perf_counter() - start\n"
        )
        assert lint_snippet(tmp_path, good, rule=self.RULE).findings == []


class TestPoolCallable:
    RULE = "pool-callable"

    def test_bad_lambda_to_pool(self, tmp_path):
        bad = (
            "from repro.experiments.parallel import run_store_cells\n"
            "def run(store, pairs):\n"
            "    return run_store_cells(store, lambda s, c, p: p, pairs)\n"
        )
        result = lint_snippet(tmp_path, bad, rule=self.RULE)
        assert [rule for rule, _ in findings_of(result)] == [self.RULE]

    def test_bad_closure_partial_and_initargs(self, tmp_path):
        bad = (
            "import functools\n"
            "def run(pool, store, pairs, config):\n"
            "    def cell(s, c, p):\n"
            "        return config\n"
            "    pool.map(cell, pairs)\n"
            "    pool.map(functools.partial(cell, store), pairs)\n"
            "    pool.submit(cell, initargs=(lambda: None,))\n"
        )
        result = lint_snippet(tmp_path, bad, rule=self.RULE)
        assert len(result.findings) == 4  # closure x2, partial, initargs lambda

    def test_good_module_level_cell(self, tmp_path):
        good = (
            "from repro.experiments.parallel import run_store_cells\n"
            "def edge_cell(store, config, pair):\n"
            "    return pair\n"
            "def run(store, pairs):\n"
            "    return run_store_cells(store, edge_cell, pairs)\n"
        )
        assert lint_snippet(tmp_path, good, rule=self.RULE).findings == []


class TestPrivatePool:
    RULE = "private-pool"

    def test_bad_executor_and_multiprocessing_pools(self, tmp_path):
        bad = (
            "import multiprocessing\n"
            "import multiprocessing as mp\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from multiprocessing import Pool\n"
            "def fan_out(task, items):\n"
            "    with ProcessPoolExecutor(max_workers=2) as pool:\n"
            "        pool.map(task, items)\n"
            "    multiprocessing.Pool(2)\n"
            "    mp.get_context('spawn').Pool(2)\n"
            "    return Pool(2)\n"
        )
        result = lint_snippet(tmp_path, bad, rule=self.RULE)
        assert [line for _, line in findings_of(result)] == [6, 8, 9, 10]

    def test_good_shared_pool_and_blessed_module(self, tmp_path):
        good = (
            "from repro.experiments.parallel import SharedStorePool\n"
            "def fan_out(state, cell, items):\n"
            "    with SharedStorePool(state, jobs=2) as pool:\n"
            "        return pool.map(cell, items)\n"
        )
        assert lint_snippet(tmp_path, good, rule=self.RULE).findings == []
        pool_module = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def start(jobs):\n"
            "    return ProcessPoolExecutor(max_workers=jobs)\n"
        )
        result = lint_snippet(
            tmp_path, pool_module, rule=self.RULE,
            path="src/repro/experiments/parallel.py",
        )
        assert result.findings == []


class TestShmLifecycle:
    RULE = "unguarded-shm"

    def test_bad_raw_allocation(self, tmp_path):
        bad = (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def alloc(n):\n"
            "    return SharedMemory(create=True, size=n)\n"
        )
        result = lint_snippet(tmp_path, bad, rule=self.RULE)
        assert [rule for rule, _ in findings_of(result)] == [self.RULE]

    def test_bad_unowned_registry(self, tmp_path):
        bad = (
            "from repro.experiments.shm import ShmRegistry\n"
            "def publish(csr):\n"
            "    registry = ShmRegistry()\n"
            "    return csr.to_shared(registry)\n"
        )
        result = lint_snippet(tmp_path, bad, rule=self.RULE)
        assert [rule for rule, _ in findings_of(result)] == [self.RULE]

    def test_bad_inline_registry_to_publisher(self, tmp_path):
        bad = (
            "from repro.experiments.shm import ShmRegistry\n"
            "def publish(csr):\n"
            "    return csr.to_shared(ShmRegistry())\n"
        )
        result = lint_snippet(tmp_path, bad, rule=self.RULE)
        assert [rule for rule, _ in findings_of(result)] == [self.RULE]

    def test_good_owned_registries(self, tmp_path):
        good = (
            "from repro.experiments.shm import ShmRegistry\n"
            "def with_context(csr):\n"
            "    with ShmRegistry() as registry:\n"
            "        return csr.to_shared(registry)\n"
            "def with_finally(csr):\n"
            "    registry = ShmRegistry()\n"
            "    try:\n"
            "        return csr.to_shared(registry)\n"
            "    finally:\n"
            "        registry.unlink()\n"
            "class Pool:\n"
            "    def __init__(self):\n"
            "        self._registry = ShmRegistry()\n"
        )
        assert lint_snippet(tmp_path, good, rule=self.RULE).findings == []


class TestExceptionTaxonomy:
    def test_bad_bare_except(self, tmp_path):
        bad = (
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except:\n"
            "        return None\n"
        )
        result = lint_snippet(tmp_path, bad, rule="bare-except")
        assert [rule for rule, _ in findings_of(result)] == ["bare-except"]

    def test_bad_broad_except(self, tmp_path):
        bad = (
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except Exception:\n"
            "        return None\n"
        )
        result = lint_snippet(tmp_path, bad, rule="broad-except")
        assert [rule for rule, _ in findings_of(result)] == ["broad-except"]

    def test_good_narrow_catch(self, tmp_path):
        # The store.py salvage idiom after the fix: a direct tuple catch.
        good = (
            "def salvage(fn, quarantined):\n"
            "    try:\n"
            "        return fn()\n"
            "    except (OSError, ValueError, KeyError) as error:\n"
            "        quarantined.append(repr(error))\n"
            "        return None\n"
        )
        assert lint_snippet(tmp_path, good, rule="broad-except").findings == []

    def test_good_cleanup_and_reraise(self, tmp_path):
        # `except BaseException: undo(); raise` swallows nothing.
        good = (
            "def f(undo):\n"
            "    try:\n"
            "        return 1\n"
            "    except BaseException:\n"
            "        undo()\n"
            "        raise\n"
        )
        assert lint_snippet(tmp_path, good, rule="broad-except").findings == []


class TestRawIO:
    RULE = "raw-io"
    PERSIST = "src/repro/experiments/persist.py"

    def test_bad_direct_open_in_backend(self, tmp_path):
        bad = (
            "def get_blob(path):\n"
            "    with open(path, 'rb') as handle:\n"
            "        return handle.read()\n"
        )
        result = lint_snippet(tmp_path, bad, rule=self.RULE, path=self.PERSIST)
        assert [rule for rule, _ in findings_of(result)] == [self.RULE]

    def test_good_inside_retry_helper(self, tmp_path):
        good = (
            "def _read_file(path):\n"
            "    def read():\n"
            "        with open(path, 'rb') as handle:\n"
            "            return handle.read()\n"
            "    return read()\n"
        )
        result = lint_snippet(tmp_path, good, rule=self.RULE, path=self.PERSIST)
        assert result.findings == []

    def test_rule_scoped_to_persistence_modules(self, tmp_path):
        elsewhere = (
            "def load(path):\n"
            "    with open(path, 'rb') as handle:\n"
            "        return handle.read()\n"
        )
        result = lint_snippet(
            tmp_path, elsewhere, rule=self.RULE, path="src/repro/io/ntriples.py"
        )
        assert result.findings == []


class TestAtomicWrite:
    RULE = "non-atomic-write"

    def test_bad_write_modes(self, tmp_path):
        bad = (
            "def save(path, text):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(text)\n"
            "    with open(path, mode='wb') as handle:\n"
            "        handle.write(b'')\n"
        )
        result = lint_snippet(tmp_path, bad, rule=self.RULE)
        assert len(result.findings) == 2

    def test_good_reads_and_helper(self, tmp_path):
        good = (
            "from repro.io.atomic import atomic_write_text\n"
            "def load(path):\n"
            "    with open(path, 'r', encoding='utf-8') as handle:\n"
            "        return handle.read()\n"
            "def save(path, text):\n"
            "    atomic_write_text(path, text)\n"
        )
        assert lint_snippet(tmp_path, good, rule=self.RULE).findings == []

    def test_blessed_module_exempt(self, tmp_path):
        blessed = (
            "def raw(path, data):\n"
            "    with open(path, 'wb') as handle:\n"
            "        handle.write(data)\n"
        )
        result = lint_snippet(
            tmp_path, blessed, rule=self.RULE, path="src/repro/io/atomic.py"
        )
        assert result.findings == []


class TestMissingAnnotations:
    RULE = "missing-annotations"
    STRICT = "src/repro/core/mod.py"

    def test_bad_unannotated_signature(self, tmp_path):
        bad = (
            "def refine(graph, epsilon=0.1):\n"
            "    return graph\n"
        )
        result = lint_snippet(tmp_path, bad, rule=self.RULE, path=self.STRICT)
        assert [rule for rule, _ in findings_of(result)] == [self.RULE]
        assert "refine" in result.findings[0].message

    def test_good_full_signature(self, tmp_path):
        good = (
            "class Engine:\n"
            "    def __init__(self, scale: float) -> None:\n"
            "        self.scale = scale\n"
            "    def refine(self, rounds: int, *args: int, **kw: object) -> int:\n"
            "        return rounds\n"
        )
        result = lint_snippet(tmp_path, good, rule=self.RULE, path=self.STRICT)
        assert result.findings == []

    def test_rule_scoped_to_strict_modules(self, tmp_path):
        loose = "def helper(x):\n    return x\n"
        result = lint_snippet(
            tmp_path, loose, rule=self.RULE, path="src/repro/experiments/mod.py"
        )
        assert result.findings == []


def test_every_registered_rule_has_a_corpus_entry():
    """The corpus above covers the full registry (new rules must add pairs)."""
    covered = {
        "unordered-iteration", "unseeded-random", "wall-clock",
        "pool-callable", "private-pool", "unguarded-shm", "bare-except",
        "broad-except",
        "raw-io", "non-atomic-write", "missing-annotations",
    }
    assert set(registered_rules()) == covered


def test_syntax_error_becomes_a_finding(tmp_path):
    result = lint_snippet(tmp_path, "def broken(:\n", rule="bare-except")
    assert [f.rule for f in result.findings] == ["syntax-error"]


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    BAD = (
        "def f():\n"
        "    try:\n"
        "        return 1\n"
        "    except Exception:{comment}\n"
        "        return None\n"
    )

    def run(self, tmp_path, comment: str):
        return lint_snippet(
            tmp_path, self.BAD.format(comment=comment), rule="broad-except"
        )

    def test_line_suppression(self, tmp_path):
        result = self.run(tmp_path, "  # reprolint: disable=broad-except")
        assert result.findings == []
        assert result.suppressed == 1

    def test_line_suppression_all(self, tmp_path):
        result = self.run(tmp_path, "  # reprolint: disable=all")
        assert result.findings == []

    def test_wrong_rule_does_not_suppress(self, tmp_path):
        result = self.run(tmp_path, "  # reprolint: disable=bare-except")
        assert len(result.findings) == 1

    def test_trailing_prose_needs_its_own_comment(self, tmp_path):
        # `disable=<rule>  # why` parses; `disable=<rule> why` does not.
        good = self.run(
            tmp_path, "  # reprolint: disable=broad-except  # oracle net"
        )
        assert good.findings == []

    def test_file_suppression(self, tmp_path):
        source = "# reprolint: disable-file=broad-except\n" + self.BAD.format(comment="")
        result = lint_snippet(tmp_path, source, rule="broad-except")
        assert result.findings == []
        assert result.suppressed == 1

    def test_comma_separated_rules(self, tmp_path):
        source = (
            "# reprolint: disable-file=bare-except, broad-except\n"
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except:\n"
            "        return None\n"
        )
        target = tmp_path / "src/repro/mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(source, encoding="utf-8")
        result = run_analysis(
            os.fspath(tmp_path), ["src/repro/mod.py"],
            rules=["bare-except", "broad-except"],
        )
        assert result.findings == []

    def test_parse_module_exposes_suppression_tables(self):
        info = parse_module(
            "m.py",
            "x = 1  # reprolint: disable=wall-clock\n"
            "# reprolint: disable-file=raw-io\n",
        )
        assert info.suppressed("wall-clock", 1)
        assert not info.suppressed("wall-clock", 2)
        assert info.suppressed("raw-io", 99)


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
class TestBaseline:
    def finding(self, snippet: str = "except Exception:", occurrence: int = 0):
        return Finding(
            rule="broad-except", path="src/repro/x.py", line=10, column=4,
            message="broad", snippet=snippet, occurrence=occurrence,
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        findings = [self.finding(), self.finding(occurrence=1)]
        save_baseline(path, findings)
        loaded = load_baseline(path)
        assert set(loaded) == {f.fingerprint() for f in findings}
        # Deterministic bytes: re-saving yields identical content.
        first = path.read_bytes()
        save_baseline(path, findings)
        assert path.read_bytes() == first

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == {}

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ReproError):
            load_baseline(path)
        path.write_text(json.dumps({"schema": "wrong"}), encoding="utf-8")
        with pytest.raises(ReproError):
            load_baseline(path)

    def test_apply_baseline_splits_new_grandfathered_stale(self, tmp_path):
        old = self.finding()
        gone = self.finding(snippet="except BaseException:")
        path = tmp_path / "baseline.json"
        save_baseline(path, [old, gone])
        fresh = self.finding(snippet="except Exception as error:")
        decision = apply_baseline([old, fresh], load_baseline(path))
        assert decision.baselined == [old]
        assert decision.new == [fresh]
        assert [entry["fingerprint"] for entry in decision.stale] == [
            gone.fingerprint()
        ]

    def test_fingerprint_survives_line_drift(self):
        before = self.finding()
        after = Finding(
            rule="broad-except", path="src/repro/x.py", line=45, column=4,
            message="broad", snippet="except Exception:", occurrence=0,
        )
        assert before.fingerprint() == after.fingerprint()
        # ...but a different source line is a different finding.
        other = self.finding(snippet="except Exception as error:")
        assert before.fingerprint() != other.fingerprint()


# ----------------------------------------------------------------------
# CLI (python -m repro.analysis and rdf-align lint)
# ----------------------------------------------------------------------
class TestCli:
    BAD = (
        "def f():\n"
        "    try:\n"
        "        return 1\n"
        "    except Exception:\n"
        "        return None\n"
    )
    GOOD = "def f() -> int:\n    return 1\n"

    def tree(self, tmp_path, source: str):
        target = tmp_path / "src/repro/mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(source, encoding="utf-8")
        return os.fspath(tmp_path)

    def test_exit_one_on_findings(self, tmp_path, capsys):
        root = self.tree(tmp_path, self.BAD)
        assert lint_main(["--root", root]) == 1
        assert "broad-except" in capsys.readouterr().out

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        root = self.tree(tmp_path, self.GOOD)
        assert lint_main(["--root", root]) == 0

    def test_update_baseline_then_clean_then_stale(self, tmp_path, capsys):
        root = self.tree(tmp_path, self.BAD)
        assert lint_main(["--root", root, "--update-baseline"]) == 0
        # Grandfathered: same tree now passes...
        assert lint_main(["--root", root]) == 0
        out = capsys.readouterr().out
        assert "grandfathered" in out
        # ...but --no-baseline still sees the finding,
        assert lint_main(["--root", root, "--no-baseline"]) == 1
        capsys.readouterr()
        # ...and fixing the violation makes the baseline entry stale
        # (exit 1 until the baseline shrinks — the ratchet).
        (tmp_path / "src/repro/mod.py").write_text(self.GOOD, encoding="utf-8")
        assert lint_main(["--root", root]) == 1
        assert "stale baseline" in capsys.readouterr().out
        assert lint_main(["--root", root, "--update-baseline"]) == 0
        assert lint_main(["--root", root]) == 0

    def test_json_report_schema(self, tmp_path, capsys):
        root = self.tree(tmp_path, self.BAD)
        assert lint_main(["--root", root, "--json", "--no-baseline"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro/reprolint-report"
        assert payload["findings"][0]["rule"] == "broad-except"
        assert payload["findings"][0]["fingerprint"]

    def test_rules_subset_and_unknown_rule(self, tmp_path, capsys):
        root = self.tree(tmp_path, self.BAD)
        assert lint_main(["--root", root, "--rules", "bare-except"]) == 0
        with pytest.raises(SystemExit):
            lint_main(["--root", root, "--rules", "no-such-rule"])

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in registered_rules():
            assert rule in out

    def test_rdf_align_lint_forwards(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        root = self.tree(tmp_path, self.BAD)
        assert cli_main(["lint", "--root", root, "--no-baseline"]) == 1
        assert "broad-except" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Meta-test: the repo satisfies its own invariants
# ----------------------------------------------------------------------
def test_real_tree_lints_clean_modulo_baseline():
    result = run_analysis(REPO_ROOT, ["src/repro"])
    baseline = load_baseline(os.path.join(REPO_ROOT, "reprolint-baseline.json"))
    decision = apply_baseline(result.findings, baseline)
    assert decision.new == [], "\n".join(f.render() for f in decision.new)
    assert decision.stale == [], (
        "baseline entries went stale — shrink reprolint-baseline.json "
        "with --update-baseline"
    )


def test_strict_prefixes_match_mypy_ratchet_table():
    """The local typing gate and the CI mypy table must not drift apart."""
    from repro.analysis.checkers.typing_gate import STRICT_PREFIXES

    pyproject = open(
        os.path.join(REPO_ROOT, "pyproject.toml"), encoding="utf-8"
    ).read()
    for prefix in STRICT_PREFIXES:
        module = (
            prefix.removeprefix("src/")
            .removesuffix(".py")
            .rstrip("/")
            .replace("/", ".")
        )
        assert module in pyproject or f"{module}.*" in pyproject, (
            f"strict prefix {prefix!r} has no mypy ratchet entry"
        )


# ----------------------------------------------------------------------
# Violation fixes, pinned by behavior (not just by the linter)
# ----------------------------------------------------------------------
class TestAtomicWriters:
    """The non-atomic-write fixes: every converted writer is crash-safe."""

    def test_atomic_write_text_and_bytes(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_text(path, "one")
        atomic_write_bytes(path, b"two")
        assert path.read_bytes() == b"two"
        assert list(tmp_path.iterdir()) == [path]  # no temp left behind

    def test_atomic_open_discards_on_exception(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_text(path, "intact")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as handle:
                handle.write("half-writ")
                raise RuntimeError("crash mid-write")
        assert path.read_text(encoding="utf-8") == "intact"
        assert list(tmp_path.iterdir()) == [path]

    def test_report_save_is_atomic(self, tmp_path, figure1_graphs):
        from repro.align import AlignConfig, Aligner

        v1, v2 = figure1_graphs
        report = Aligner(AlignConfig(method="hybrid")).report(v1, v2)
        path = tmp_path / "report.json"
        report.save(path)
        from repro.align import AlignmentReport

        assert AlignmentReport.load(path) == report
        assert list(tmp_path.iterdir()) == [path]

    def test_ntriples_dump_path_is_atomic(self, tmp_path, figure1_graphs):
        from repro.io import ntriples

        v1, _ = figure1_graphs
        path = tmp_path / "v1.nt"
        ntriples.dump_path(v1, path)
        assert set(ntriples.load_path(path).triples()) == set(v1.triples())
        assert list(tmp_path.iterdir()) == [path]

    def test_experiment_result_save_is_atomic(self, tmp_path):
        from repro.experiments.base import ExperimentResult

        result = ExperimentResult(
            figure="Figure 99", title="t", parameters={"scale": 1},
            rows=[{"x": 1}], rendered="body",
        )
        result.save(tmp_path)
        payload = json.loads((tmp_path / "figure99.json").read_text())
        assert payload["rows"] == [{"x": 1}]
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_benchlog_append_is_atomic(self, tmp_path):
        from repro.benchlog import append_bench_entry

        target = tmp_path / "bench.json"
        assert append_bench_entry(target, "n", 1.5)
        assert append_bench_entry(target, "m", 2.5)
        entries = json.loads(target.read_text())
        assert [entry["name"] for entry in entries] == ["n", "m"]
        assert list(tmp_path.iterdir()) == [target]


_HASH_SEED_SCRIPT = """
import sys
from repro.align import AlignConfig, Aligner
from repro.datasets.synthetic import SyntheticConfig, SyntheticGenerator

graphs = SyntheticGenerator(
    config=SyntheticConfig(shape="scale_free", scale=0.2, seed=13, versions=2)
).graphs()
report = Aligner(
    AlignConfig(method="overlap", theta=0.6, engine="reference")
).report(graphs[0], graphs[1])
sys.stdout.write(report.to_json())
"""


def test_overlap_report_bytes_independent_of_hash_seed(tmp_path):
    """The unordered-iteration fixes, end to end: the overlap method's
    float-accumulation order (and thus the report's bytes) must not
    depend on PYTHONHASHSEED.  Before the sorted() upgrades in
    dense_overlap/overlap_alignment this differed between seeds."""
    outputs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert '"pairs"' in outputs[0]


def test_probe_overhead_narrow_catch_propagates_interrupt(monkeypatch):
    """The parallel-probe fix: `except Exception` became a narrow tuple,
    so a KeyboardInterrupt during the probe is no longer swallowed."""
    from repro.experiments import parallel

    monkeypatch.setattr(parallel, "_MEASURED_OVERHEAD", None)

    class InterruptingExecutor:
        def __init__(self, *args, **kwargs):
            raise KeyboardInterrupt

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", InterruptingExecutor)
    with pytest.raises(KeyboardInterrupt):
        parallel.pool_overhead()
