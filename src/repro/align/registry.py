"""The pluggable method registry: one :class:`MethodSpec` per alignment family.

The paper presents alignment as a family of related operators forming the
hierarchy ``trivial ⊆ deblank ⊆ hybrid ⊆ overlap`` (Sections 3.4 and 4.7).
This module makes that family *data*: every method — the four partition
builders, the related-work baselines, and any third-party operator — is a
:class:`MethodSpec` registered under a name, and everything that used to
hardcode the method list (``METHOD_ORDER``, the CLI's ``--method`` choices,
the figure experiments) derives it from here instead.

Registering a new method is one call::

    from repro.align import MethodSpec, register_method

    def my_runner(graph, config, context):
        ...  # -> AlignmentResult or BaselineResult
        return result

    register_method(MethodSpec("my_method", my_runner, finer_than="hybrid"))

after which ``AlignConfig(method="my_method")``, ``Aligner`` and
``rdf-align align --method my_method`` all work (the CLI reads the
registry when it builds its parser).

The runner contract: ``runner(graph, config, context)`` where *graph* is
the pair's :class:`~repro.model.union.CombinedGraph`, *config* the active
:class:`~repro.align.config.AlignConfig` and *context* a
:class:`~repro.align.methods.MethodContext` carrying session-cached
artifacts (a memoized literal splitter).  It returns an object
with the result surface described in :mod:`repro.align.results` (at
minimum ``method``, ``graph``, ``engine`` and an ``alignment`` with
``pairs()``/``unaligned_source()``/``unaligned_target()``/
``matched_class_count()``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from ..exceptions import ConfigError, UnknownMethodError


@dataclass(frozen=True)
class MethodSpec:
    """One alignment method, as the registry sees it.

    ``finer_than`` names the method this one refines (``None`` for the
    coarsest): the paper's containment hierarchy, used to derive the
    coarse-to-fine ``METHOD_ORDER``.  ``baseline`` marks related-work
    methods that sit outside the hierarchy (they are offered by the CLI
    but never enter the order).  ``label_floor`` says the method's
    partition can never split label-equal URI nodes — true for the
    paper's four operators, false for the all-node bisimulation family,
    whose refinement distinguishes URIs by structure; the differential
    oracle keys its ground-truth floor check on this flag.
    ``uses_k`` marks methods parameterized by the round bound
    ``AlignConfig.k`` (reports then record ``k`` among their parameters).
    """

    name: str
    runner: Callable[..., object]
    finer_than: str | None = None
    description: str = ""
    baseline: bool = False
    label_floor: bool = True
    uses_k: bool = False


#: name -> spec, in registration order (dicts preserve insertion order).
_REGISTRY: dict[str, MethodSpec] = {}

_defaults_loaded = False


def _ensure_defaults() -> None:
    """Load the built-in methods on first registry access (import cycle
    breaker: :mod:`repro.align.methods` imports the partition builders,
    which must not happen while this module is being imported)."""
    global _defaults_loaded
    if not _defaults_loaded:
        _defaults_loaded = True
        from . import methods  # noqa: F401  (registers the built-ins)


def register_method(spec: MethodSpec, replace: bool = False) -> MethodSpec:
    """Add *spec* to the registry and return it.

    Raises :class:`ConfigError` on a malformed or duplicate name, or when
    ``finer_than`` names a method that is not registered yet.
    """
    _ensure_defaults()
    name = spec.name
    if not isinstance(name, str) or not name or not name.replace("_", "").isalnum():
        raise ConfigError(
            f"method name must be a non-empty alphanumeric/underscore "
            f"string, got {name!r}"
        )
    if not callable(spec.runner):
        raise ConfigError(f"runner of method {name!r} is not callable")
    if name in _REGISTRY and not replace:
        raise ConfigError(
            f"method {name!r} is already registered (pass replace=True to override)"
        )
    if spec.finer_than is not None and spec.finer_than not in _REGISTRY:
        raise ConfigError(
            f"method {name!r} claims to refine unknown method {spec.finer_than!r}"
        )
    _REGISTRY[name] = spec
    return spec


def unregister_method(name: str) -> None:
    """Remove a method (third-party/test cleanup; built-ins can be
    re-registered by reloading :mod:`repro.align.methods`)."""
    _ensure_defaults()
    _REGISTRY.pop(name, None)


def get_method(name: str) -> MethodSpec:
    """The spec registered under *name*, or :class:`UnknownMethodError`."""
    _ensure_defaults()
    try:
        return _REGISTRY[name]
    except (KeyError, TypeError):
        raise UnknownMethodError(
            f"unknown method {name!r}; expected one of {method_names()}"
        ) from None


def iter_methods() -> Iterator[MethodSpec]:
    """All registered specs: hierarchy methods first (coarse to fine),
    then baselines and third-party methods in registration order."""
    _ensure_defaults()
    ordered = method_order()
    for name in ordered:
        yield _REGISTRY[name]
    for name, spec in _REGISTRY.items():
        if name not in ordered:
            yield spec


def method_order() -> tuple[str, ...]:
    """Non-baseline methods ordered coarsest to finest.

    Derived from the ``finer_than`` edges by a stable topological sort
    (registration order breaks ties), so the built-ins yield the paper's
    ``("trivial", "deblank", "hybrid", "overlap")``.
    """
    _ensure_defaults()
    members = [s for s in _REGISTRY.values() if not s.baseline]
    placed: list[str] = []
    remaining = {s.name: s for s in members}
    while remaining:
        progressed = False
        for name in list(remaining):
            finer_than = remaining[name].finer_than
            if finer_than is None or finer_than in placed or finer_than not in remaining:
                placed.append(name)
                del remaining[name]
                progressed = True
        if not progressed:  # pragma: no cover - register_method forbids cycles
            placed.extend(sorted(remaining))
            break
    return tuple(placed)


def method_names() -> tuple[str, ...]:
    """Every registered method name, in :func:`iter_methods` order.

    This is the CLI's ``--method`` choice list.
    """
    return tuple(spec.name for spec in iter_methods())


def refines(finer: str, coarser: str) -> bool:
    """Does *finer* (transitively) refine *coarser* per ``finer_than``?"""
    spec = get_method(finer)
    while spec.finer_than is not None:
        if spec.finer_than == coarser:
            return True
        spec = get_method(spec.finer_than)
    return False
