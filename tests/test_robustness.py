"""The fault-injection harness and the retry/degradation machinery.

Unit coverage for :mod:`repro.robustness` plus the CLI's resilience
surface.  The contract:

* fault plans are deterministic (seeded, occurrence-counted, picklable)
  and injection is a no-op when no plan is armed;
* transient errors retry under an exponential-backoff budget, permanent
  errors propagate immediately, and spent budgets degrade with a
  structured out-of-band :class:`DegradationEvent`;
* an injected-then-recovered run returns exactly the clean result
  (hypothesis pins this across fault counts and payloads);
* ``rdf-align store verify`` exits 0 on a clean archive, 1 on
  corruption, and ``--quarantine`` isolates the damage; Ctrl-C exits
  130 after unlinking shared-memory segments.

The pool-level recovery state machine (crash → retry → degrade, under
real SIGKILLed workers) lives in ``tests/test_shm.py``; the end-to-end
byte-identity oracle is ``repro.testing.differential --axis faults``.
"""

from __future__ import annotations

import errno
import pickle
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cli as cli
from repro.align import AlignConfig
from repro.exceptions import ConfigError, TransientError, WorkerCrashError
from repro.robustness import (
    DegradationEvent,
    FaultClock,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    active_plan,
    call_with_retry,
    drain_events,
    filter_bytes,
    fire,
    inject,
    is_transient,
    record_event,
)
from repro.robustness.retry import EVENTS


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(site="worker.cell", kind="meteor")

    def test_site_and_index_filters(self):
        spec = FaultSpec(site="worker.cell", kind="oserror", index=3)
        assert spec.matches("worker.cell", 3, None, 0)
        assert not spec.matches("worker.cell", 4, None, 0)
        assert not spec.matches("cell.serial", 3, None, 0)

    def test_key_substring_filter(self):
        spec = FaultSpec(site="backend.read", kind="bitflip", key="graphs/")
        assert spec.matches("backend.read", None, "graphs/0.nt", None)
        assert not spec.matches("backend.read", None, "csr/0/offsets", None)
        assert not spec.matches("backend.read", None, None, None)

    def test_attempt_window_defaults_to_first_attempt(self):
        spec = FaultSpec(site="worker.cell", kind="sigkill")
        assert spec.matches("worker.cell", 0, None, 0)
        assert not spec.matches("worker.cell", 0, None, 1)
        persistent = FaultSpec(site="worker.cell", kind="sigkill", attempts=None)
        assert persistent.matches("worker.cell", 0, None, 7)

    def test_plan_round_trips_through_pickle(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(site="worker.cell", kind="hang", seconds=0.5),
                FaultSpec(site="backend.read", kind="bitflip", key="csr/"),
            ),
            name="pickled",
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.clock().counts == [0, 0]


class TestFaultClock:
    def _spec(self, nth=0, times=1):
        return FaultSpec(site="s", kind="oserror", nth=nth, times=times)

    def test_window_nth_times(self):
        clock = FaultClock(counts=[0])
        spec = self._spec(nth=1, times=2)
        admitted = [clock.admit(0, spec) for _ in range(5)]
        assert admitted == [False, True, True, False, False]

    def test_times_none_is_forever(self):
        clock = FaultClock(counts=[0])
        spec = self._spec(nth=0, times=None)
        assert all(clock.admit(0, spec) for _ in range(10))


class TestInjection:
    def test_fire_is_noop_without_plan(self):
        assert active_plan() is None
        fire("worker.cell", index=0)  # must not raise

    def test_inject_arms_and_restores(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="cell.serial", kind="oserror",
                             attempts=None),),
        )
        with inject(plan):
            assert active_plan() is plan
            with pytest.raises(OSError) as caught:
                fire("cell.serial", index=0)
            assert caught.value.errno == errno.EIO
        assert active_plan() is None

    def test_inject_restores_on_exception(self):
        plan = FaultPlan(specs=())
        with pytest.raises(RuntimeError, match="boom"):
            with inject(plan):
                raise RuntimeError("boom")
        assert active_plan() is None

    def test_bitflip_changes_exactly_one_byte(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="backend.read", kind="bitflip", seed=3),),
        )
        payload = bytes(range(64))
        with inject(plan):
            corrupted = filter_bytes("backend.read", "k", payload)
        diffs = [i for i, (a, b) in enumerate(zip(payload, corrupted))
                 if a != b]
        assert len(diffs) == 1
        assert corrupted[diffs[0]] == payload[diffs[0]] ^ 0xFF

    def test_truncate_halves_payload(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="backend.read", kind="truncate"),),
        )
        with inject(plan):
            assert filter_bytes("backend.read", "k", b"12345678") == b"1234"

    def test_payload_faults_leave_empty_payloads_alone(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="backend.read", kind="bitflip"),),
        )
        with inject(plan):
            assert filter_bytes("backend.read", "k", b"") == b""


class TestRetryPolicy:
    def test_backoff_schedule_doubles_under_cap(self):
        policy = RetryPolicy(retries=5, base_delay=0.1, cap=0.5)
        assert policy.delay(0) == 0.0
        assert [policy.delay(n) for n in (1, 2, 3, 4)] == [0.1, 0.2, 0.4, 0.5]
        assert policy.attempts == 6

    def test_from_config_reads_align_config(self):
        config = AlignConfig(retries=4, cell_timeout=7.5)
        policy = RetryPolicy.from_config(config)
        assert (policy.retries, policy.cell_timeout) == (4, 7.5)
        assert RetryPolicy.from_config(None).retries == RetryPolicy.retries
        assert RetryPolicy.from_config(config, retries=0).retries == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(retries=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(cell_timeout=0)


class TestCallWithRetry:
    def _flaky(self, failures, error=None):
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] <= failures:
                raise (error or OSError(errno.EIO, "flaky"))
            return "ok"

        return fn, calls

    def test_transient_failures_are_absorbed_with_backoff(self):
        fn, calls = self._flaky(2)
        slept: list[float] = []
        policy = RetryPolicy(retries=3, base_delay=0.25, cap=10.0)
        assert call_with_retry(fn, policy=policy, sleep=slept.append) == "ok"
        assert calls["n"] == 3
        assert slept == [0.25, 0.5]

    def test_budget_exhaustion_reraises_the_last_error(self):
        fn, calls = self._flaky(10)
        policy = RetryPolicy(retries=2, base_delay=0.0)
        with pytest.raises(OSError):
            call_with_retry(fn, policy=policy, sleep=lambda _: None)
        assert calls["n"] == 3

    def test_missing_file_is_not_transient(self):
        fn, calls = self._flaky(1, error=FileNotFoundError("gone"))
        with pytest.raises(FileNotFoundError):
            call_with_retry(fn, policy=RetryPolicy(retries=5),
                            sleep=lambda _: None)
        assert calls["n"] == 1

    def test_permanent_errors_propagate_immediately(self):
        fn, calls = self._flaky(1, error=ValueError("wrong input"))
        with pytest.raises(ValueError):
            call_with_retry(fn, policy=RetryPolicy(retries=5),
                            sleep=lambda _: None)
        assert calls["n"] == 1

    def test_taxonomy(self):
        assert is_transient(TransientError("t"))
        assert is_transient(WorkerCrashError("w"))
        assert is_transient(OSError(errno.EIO, "io"))
        assert not is_transient(FileNotFoundError("missing"))
        assert not is_transient(ValueError("permanent"))


class TestDegradationEvents:
    def test_record_and_drain(self):
        drain_events()
        sink: list[DegradationEvent] = []
        event = DegradationEvent(
            reason="worker-crash", attempts=3, cells=(1, 4), error="X()")
        record_event(event, sink)
        assert sink == [event]
        assert drain_events() == [event]
        assert EVENTS == []
        assert event.to_dict() == {
            "reason": "worker-crash", "attempts": 3,
            "cells": [1, 4], "error": "X()",
        }


class TestConfigKnobs:
    def test_defaults_and_to_dict(self):
        config = AlignConfig()
        assert config.retries == 2
        assert config.cell_timeout is None
        exported = config.to_dict()
        assert exported["retries"] == 2
        assert exported["cell_timeout"] is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retries": -1},
            {"retries": True},
            {"retries": 1.5},
            {"cell_timeout": 0},
            {"cell_timeout": -2.0},
            {"cell_timeout": True},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            AlignConfig(**kwargs)


def _flip_byte(path) -> None:
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    from repro.datasets.synthetic import SCENARIOS, SyntheticGenerator
    from repro.experiments.store import VersionStore

    pytest.importorskip("numpy")
    root = tmp_path_factory.mktemp("cli-store") / "archive"
    store = VersionStore(SyntheticGenerator.shared(SCENARIOS["small_er"]))
    store.prepare(summaries=True, csr=True)
    store.save(root)
    return root


class TestStoreVerifyCLI:
    def test_clean_store_exits_zero(self, archive, capsys):
        assert cli.main(["store", "verify", str(archive)]) == 0
        assert "store OK" in capsys.readouterr().out

    def test_corruption_exits_one_and_quarantine_heals(
        self, archive, tmp_path, capsys
    ):
        import shutil

        from repro.experiments.persist import DiskBackend

        root = tmp_path / "corrupt"
        shutil.copytree(archive, root)
        probe = DiskBackend.open(root)
        _flip_byte(root / probe._arrays["csr/0/offsets"]["file"])

        assert cli.main(["store", "verify", str(root)]) == 1
        err = capsys.readouterr().err
        assert "CORRUPT" in err and "csr/0/offsets" in err

        assert cli.main(["store", "verify", str(root), "--quarantine"]) == 1
        assert "quarantine" in capsys.readouterr().err
        # The damage is isolated: the archive now verifies clean.
        assert cli.main(["store", "verify", str(root)]) == 0


class TestCLIInterrupt:
    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "store", interrupted)
        assert cli.main(["store", "verify", "ignored"]) == 130
        assert "interrupted" in capsys.readouterr().err


# -- properties ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    payload=st.binary(min_size=1, max_size=256),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_bitflip_always_breaks_the_checksum(payload, seed):
    # CRC32 detects any single flipped byte, so a bitflip fault can never
    # slip past a verifying backend read.
    plan = FaultPlan(
        specs=(FaultSpec(site="backend.read", kind="bitflip", seed=seed),),
    )
    with inject(plan):
        corrupted = filter_bytes("backend.read", "k", payload)
    assert zlib.crc32(corrupted) != zlib.crc32(payload)
    # Determinism: a fresh clock yields byte-identical corruption.
    with inject(plan):
        assert filter_bytes("backend.read", "k", payload) == corrupted


@settings(max_examples=60, deadline=None)
@given(
    failures=st.integers(min_value=0, max_value=4),
    value=st.integers(),
)
def test_recovered_run_equals_clean_run(failures, value):
    # However many transient faults precede success, the recovered
    # result is exactly the clean one — and the backoff schedule is the
    # policy's, no more and no less.
    policy = RetryPolicy(retries=4, base_delay=0.01, cap=1.0)
    state = {"n": 0}

    def fn():
        state["n"] += 1
        if state["n"] <= failures:
            raise TransientError(f"injected #{state['n']}")
        return value

    slept: list[float] = []
    assert call_with_retry(fn, policy=policy, sleep=slept.append) == value
    assert slept == [policy.delay(n) for n in range(1, failures + 1)]
