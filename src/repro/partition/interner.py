"""Hash-consing of colors.

The paper observes that the color assigned to a node by bisimulation
refinement "is essentially a derivation tree rooted at the node, and ...
can be compactly presented as a DAG and implemented with a simple hashing
technique".  :class:`ColorInterner` is that technique: every structural
color key (an arbitrary hashable value, typically a tuple referencing
previously interned colors) is mapped to a small integer, and equal keys
always map to the same integer.  Colors therefore compare in O(1) and the
DAG of derivation trees is stored only once.

Key conventions used across the library (see
:mod:`repro.partition.derivation` which pretty-prints them):

* ``("label", label)`` — a node label used as a color,
* ``("node", node_id)`` — a unique per-node color (trivial partition's
  blank nodes),
* ``("blank",)`` — the neutral blank color ``⊥``,
* ``("recolor", color, ((p_color, o_color), ...))`` — one refinement step
  (paper equation (1)),
* ``("component", generation, index)`` — an enrichment component
  (paper Section 4.4).
"""

from __future__ import annotations

from itertools import islice
from typing import Hashable, Iterable, Iterator

#: Interned colors are plain ints.
Color = int

#: The key of the neutral blank color.
BLANK_KEY: tuple[str] = ("blank",)


class ColorInterner:
    """Bijection between structural color keys and dense integer colors."""

    __slots__ = ("_by_key", "_keys")

    def __init__(self) -> None:
        self._by_key: dict[Hashable, Color] = {}
        self._keys: list[Hashable] = []

    def intern(self, key: Hashable) -> Color:
        """Return the color for *key*, allocating one on first sight."""
        color = self._by_key.get(key)
        if color is None:
            color = len(self._keys)
            self._by_key[key] = color
            self._keys.append(key)
        return color

    def intern_many(self, keys: Iterable[Hashable]) -> list[Color]:
        """The colors of *keys*, in order, as repeated :meth:`intern` calls.

        One ``dict.setdefault`` per key, with the table's size as the
        default: a new key gets exactly the color :meth:`intern` would
        allocate.  The new keys then join the key list in insertion order.
        """
        by_key = self._by_key
        start = len(by_key)
        setdefault = by_key.setdefault
        colors = [setdefault(key, len(by_key)) for key in keys]
        self._keys.extend(islice(by_key, start, None))
        return colors

    def key(self, color: Color) -> Hashable:
        """The structural key that produced *color*."""
        return self._keys[color]

    def __contains__(self, key: Hashable) -> bool:
        return key in self._by_key

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._keys)

    def clone(self) -> "ColorInterner":
        """An independent copy with the same key → color bijection.

        Lets several alignment runs branch off one shared base partition
        (e.g. one hybrid base, many overlap thresholds) without their
        freshly minted colors interfering: each run interns into its own
        copy, so a run's results depend only on the shared base, never on
        which sibling ran first.
        """
        copy = ColorInterner()
        copy._by_key = dict(self._by_key)
        copy._keys = list(self._keys)
        return copy

    # -- convenience constructors --------------------------------------
    def label_color(self, label: Hashable) -> Color:
        """The color of a node label (used by the initial partition)."""
        return self.intern(("label", label))

    def node_color(self, node: Hashable) -> Color:
        """A color unique to *node* (trivial partition of blank nodes)."""
        return self.intern(("node", node))

    def blank_color(self) -> Color:
        """The neutral blank color ``⊥`` (hybrid alignment's reset color)."""
        return self.intern(BLANK_KEY)

    def component_color(self, generation: int, index: int) -> Color:
        """A fresh color for an enrichment component."""
        return self.intern(("component", generation, index))

    def __repr__(self) -> str:
        return f"<ColorInterner colors={len(self._keys)}>"
