"""A DBpedia-category-like growing graph family (paper Figure 16).

The scalability experiment runs the alignment methods on six versions of a
DBpedia subset with Wikipedia category information — a SKOS-style category
hierarchy (``skos:broader``) plus article categorization
(``dct:subject``) and labels.  Figure 16 only measures *running time
against input size*, so the substitute only needs the same growth profile
and node-type mix: categories ≈ a tree with cross-links, articles with 1–3
subjects, label literals on everything, versions growing by roughly 10 %
per step (the paper's graphs grow from 2.6M to 4.2M nodes; ``scale=1.0``
here produces thousands of nodes — pass a larger scale to stress it).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..model.labels import URI
from ..model.namespaces import (
    DCT_SUBJECT,
    Namespace,
    RDFS_LABEL,
    SKOS_BROADER,
    SKOS_PREF_LABEL,
)
from ..model.rdf import RDFGraph, lit
from ..model.union import CombinedGraph, combine
from .ground_truth import GroundTruth
from .mutations import make_name

CATEGORY = Namespace("http://dbpedia.example.org/category/")
RESOURCE = Namespace("http://dbpedia.example.org/resource/")

TOPIC_WORDS = (
    "history geography science physics chemistry biology mathematics "
    "music art literature film sport football politics economics law "
    "medicine engineering computing software language culture religion "
    "philosophy education military transport architecture astronomy "
    "geology ecology zoology botany people births deaths cities rivers "
    "mountains islands countries companies universities museums awards "
    "novels albums songs games elections treaties battles dynasties"
).split()


@dataclass(frozen=True)
class DBpediaConfig:
    """Generation parameters (counts are at ``scale = 1.0``)."""

    scale: float = 1.0
    versions: int = 6
    seed: int = 30
    initial_categories: int = 300
    initial_articles: int = 900
    growth: float = 0.10
    relabel_fraction: float = 0.01
    extra_broader_probability: float = 0.3

    def scaled(self, count: int) -> int:
        return max(5, int(count * self.scale))


@dataclass
class _Category:
    entity: int
    name: str
    parents: tuple[int, ...]
    born: int


@dataclass
class _Article:
    entity: int
    name: str
    subjects: tuple[int, ...]
    born: int


class DBpediaCategoryGenerator:
    """Generates the six growing category-graph versions."""

    def __init__(self, scale: float = 1.0, seed: int = 30, versions: int = 6,
                 config: DBpediaConfig | None = None) -> None:
        if config is None:
            config = DBpediaConfig(scale=scale, seed=seed, versions=versions)
        self.config = config
        self._rng = random.Random(config.seed)
        self._categories: list[_Category] = []
        self._articles: list[_Article] = []
        self._built = False
        self._graphs: dict[int, RDFGraph] = {}

    @classmethod
    def shared(cls, scale: float = 1.0, seed: int = 30,
               versions: int = 6) -> "DBpediaCategoryGenerator":
        """The process-wide memoized generator for this configuration."""
        from .registry import shared_generator

        return shared_generator(cls, scale=scale, seed=seed, versions=versions)

    # ------------------------------------------------------------------
    def _new_category(self, entity: int, born: int) -> _Category:
        rng = self._rng
        parents: tuple[int, ...] = ()
        if self._categories:
            count = 1 + (rng.random() < self.config.extra_broader_probability)
            parents = tuple(
                sorted({rng.choice(self._categories).entity for _ in range(count)})
            )
        return _Category(
            entity=entity,
            name=make_name(rng, TOPIC_WORDS, rng.choice((1, 2, 2, 3))).title(),
            parents=parents,
            born=born,
        )

    def _new_article(self, entity: int, born: int) -> _Article:
        rng = self._rng
        subjects = tuple(
            sorted({rng.choice(self._categories).entity for _ in range(rng.choice((1, 1, 2, 3)))})
        )
        return _Article(
            entity=entity,
            name=make_name(rng, TOPIC_WORDS, rng.choice((2, 3, 4))).title(),
            subjects=subjects,
            born=born,
        )

    def _build(self) -> None:
        if self._built:
            return
        cfg = self.config
        for index in range(cfg.scaled(cfg.initial_categories)):
            self._categories.append(self._new_category(index, born=1))
        for index in range(cfg.scaled(cfg.initial_articles)):
            self._articles.append(self._new_article(index, born=1))
        for version in range(2, cfg.versions + 1):
            new_categories = int(len(self._categories) * cfg.growth)
            for _ in range(new_categories):
                self._categories.append(
                    self._new_category(len(self._categories), born=version)
                )
            new_articles = int(len(self._articles) * cfg.growth)
            for _ in range(new_articles):
                self._articles.append(
                    self._new_article(len(self._articles), born=version)
                )
        self._built = True

    # ------------------------------------------------------------------
    def category_uri(self, category: _Category) -> URI:
        return CATEGORY[f"Cat{category.entity}"]

    def article_uri(self, article: _Article) -> URI:
        return RESOURCE[f"Page{article.entity}"]

    def graph(self, version_index: int) -> RDFGraph:
        """The category graph of one version (0-based index)."""
        if version_index in self._graphs:
            return self._graphs[version_index]
        self._build()
        version = version_index + 1
        graph = RDFGraph()
        alive_categories = {
            c.entity: c for c in self._categories if c.born <= version
        }
        for category in alive_categories.values():
            subject = self.category_uri(category)
            graph.add(subject, SKOS_PREF_LABEL, lit(category.name))
            for parent in category.parents:
                if parent in alive_categories:
                    graph.add(
                        subject,
                        SKOS_BROADER,
                        self.category_uri(alive_categories[parent]),
                    )
        for article in self._articles:
            if article.born > version:
                continue
            subject = self.article_uri(article)
            graph.add(subject, RDFS_LABEL, lit(article.name))
            for target in article.subjects:
                if target in alive_categories:
                    graph.add(
                        subject,
                        DCT_SUBJECT,
                        self.category_uri(alive_categories[target]),
                    )
        self._graphs[version_index] = graph
        return graph

    def graphs(self) -> list[RDFGraph]:
        return [self.graph(i) for i in range(self.config.versions)]

    def ground_truth(self, source_index: int, target_index: int) -> GroundTruth:
        """Identity correspondence — DBpedia URIs are stable here.

        Figure 16 measures time, not accuracy; the ground truth is provided
        for completeness (it is simply label equality on shared URIs).
        """
        self._build()
        source_graph = self.graph(source_index)
        target_graph = self.graph(target_index)
        pairs = {}
        for node in source_graph.uris():
            if node in target_graph:
                pairs[node] = node
        return GroundTruth(pairs)

    def combined(self, source_index: int, target_index: int) -> tuple[CombinedGraph, GroundTruth]:
        return (
            combine(self.graph(source_index), self.graph(target_index)),
            self.ground_truth(source_index, target_index),
        )
