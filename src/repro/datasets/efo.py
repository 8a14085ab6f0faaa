"""An EFO-like evolving ontology with blank-node records.

The Experimental Factor Ontology experiments (paper Figures 9–11) need an
evolving RDF dataset with EFO's characteristics:

* literals comprise over 75 % of nodes, URIs about 10 %, blank nodes
  7–15 % with *fluctuations caused by duplicated bisimilar blanks*,
* classes carry labels, definitions and synonyms plus a blank-node
  *definition-citation record* (the reified structure that makes blank
  alignment necessary),
* URI-prefix migrations: one group of classes uses the old OBO prefix in
  versions 1–2, disappears in versions 3–4 and reappears with the new
  prefix from version 5 on; another group is bulk-renamed between
  versions 7 and 8 — both anecdotes are reported in the paper's Section
  5.1 and drive the Hybrid/Overlap improvements of Figure 11,
* a steady stream of curation edits to literal values.

Ground truth is tracked by stable class entities so the EFO experiments
can also be scored (the paper could not — it lacked EFO ground truth; we
note this in EXPERIMENTS.md and use the ground truth only for sanity
checks, not for reproducing the published figures).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..model.labels import URI
from ..model.namespaces import (
    Namespace,
    OBO_NEW,
    OBO_OLD,
    OWL_CLASS,
    RDF_TYPE,
    RDFS_LABEL,
    RDFS_SUBCLASS_OF,
)
from ..model.rdf import BlankNode, RDFGraph, lit
from ..model.union import CombinedGraph, combine
from .ground_truth import GroundTruth
from .mutations import curation_edit, make_identifier, make_name, sample_fraction

EFO = Namespace("http://www.ebi.ac.uk/efo/")
EFO_DEFINITION = EFO["definition"]
EFO_SYNONYM = EFO["alternative_term"]
EFO_CITATION = EFO["definition_citation"]
EFO_SOURCE = EFO["citation_source"]
EFO_ACCESSION = EFO["citation_accession"]
EFO_NOTE = EFO["editor_note"]

BIO_WORDS = (
    "cell line tissue disease phenotype assay sample organism strain "
    "carcinoma lymphoma melanoma fibroblast epithelial neural hepatic "
    "cardiac renal pulmonary gastric colon breast prostate ovarian "
    "embryonic adult primary cultured immortalized derived treatment "
    "exposure compound dose response factor experimental variable "
    "measurement protocol antibody marker expression knockout mutant "
    "wildtype transgenic induced pluripotent stem differentiation stage "
    "anatomy development growth medium serum condition replicate batch"
).split()

#: Prefix-migration groups.
STABLE = "stable"
VANISH_AND_RENAME = "vanish"  # old prefix v1–2, absent v3–4, new prefix v5+
BULK_RENAME = "bulk"          # old prefix through v7, new prefix v8+


@dataclass
class OntologyClass:
    """One ontology class entity, persistent across versions."""

    entity: int
    accession: str
    label: str
    definition: str
    note: str
    synonyms: tuple[str, ...]
    parents: tuple[int, ...]
    group: str = STABLE
    citation: tuple[str, str] | None = ("PubMed", "PMID:0")
    born: int = 1  # first version containing the class


@dataclass(frozen=True)
class EFOConfig:
    """Generation parameters (counts are at ``scale = 1.0``)."""

    scale: float = 1.0
    versions: int = 10
    seed: int = 234
    initial_classes: int = 160
    growth: float = 0.09
    vanish_fraction: float = 0.08
    bulk_fraction: float = 0.12
    edit_fraction: float = 0.03
    rename_edit_probability: float = 0.5
    #: Per-version fraction of classes whose citation blank is duplicated —
    #: varied deliberately to reproduce Figure 9's blank-count fluctuation.
    duplication_schedule: tuple[float, ...] = (
        0.10, 0.35, 0.05, 0.25, 0.15, 0.40, 0.10, 0.30, 0.20, 0.45,
    )

    def scaled(self, count: int) -> int:
        return max(4, int(count * self.scale))


class EFOGenerator:
    """Generates the ten ontology versions and their ground truths."""

    def __init__(self, scale: float = 1.0, seed: int = 234, versions: int = 10,
                 config: EFOConfig | None = None) -> None:
        if config is None:
            config = EFOConfig(scale=scale, seed=seed, versions=versions)
        self.config = config
        self._rng = random.Random(config.seed)
        self._classes: list[OntologyClass] | None = None
        #: per-version label/definition overrides: version -> entity -> text
        self._label_edits: list[dict[int, str]] = []
        self._definition_edits: list[dict[int, str]] = []
        self._graphs: dict[int, RDFGraph] = {}
        self._entities: dict[int, dict[int, URI]] = {}

    @classmethod
    def shared(cls, scale: float = 1.0, seed: int = 234,
               versions: int = 10) -> "EFOGenerator":
        """The process-wide memoized generator for this configuration."""
        from .registry import shared_generator

        return shared_generator(cls, scale=scale, seed=seed, versions=versions)

    # ------------------------------------------------------------------
    # Entity population
    # ------------------------------------------------------------------
    def _new_class(self, entity: int, existing: list[OntologyClass], born: int) -> OntologyClass:
        rng = self._rng
        parents: tuple[int, ...] = ()
        if existing:
            count = rng.choice((1, 1, 1, 2))
            parents = tuple(
                sorted({rng.choice(existing).entity for _ in range(count)})
            )
        synonyms = tuple(
            make_name(rng, BIO_WORDS, rng.choice((2, 3)))
            for _ in range(rng.choice((1, 2, 2, 3)))
        )
        citation: tuple[str, str] | None = None
        if rng.random() < 0.6:
            citation = ("PubMed", f"PMID:{rng.randrange(10_000_000)}")
        return OntologyClass(
            entity=entity,
            accession=make_identifier(rng, "EFO_"),
            label=make_name(rng, BIO_WORDS, rng.choice((2, 3))),
            definition=make_name(rng, BIO_WORDS, 8),
            note=make_name(rng, BIO_WORDS, 6),
            synonyms=synonyms,
            parents=parents,
            citation=citation,
            born=born,
        )

    def _build_classes(self) -> list[OntologyClass]:
        cfg = self.config
        rng = self._rng
        classes: list[OntologyClass] = []
        for index in range(cfg.scaled(cfg.initial_classes)):
            classes.append(self._new_class(index, classes, born=1))
        # Assign migration groups among the initial classes.
        candidates = [cls for cls in classes if cls.parents]
        vanish = sample_fraction(rng, candidates, cfg.vanish_fraction)
        for cls in vanish:
            cls.group = VANISH_AND_RENAME
        remaining = [cls for cls in candidates if cls.group == STABLE]
        for cls in sample_fraction(rng, remaining, cfg.bulk_fraction):
            cls.group = BULK_RENAME
        # Growth: later versions add new (stable) classes.
        entity = len(classes)
        for version in range(2, cfg.versions + 1):
            additions = int(len(classes) * cfg.growth)
            for _ in range(additions):
                classes.append(self._new_class(entity, classes, born=version))
                entity += 1
        self._schedule_edits(classes)
        return classes

    def _schedule_edits(self, classes: list[OntologyClass]) -> None:
        """Pre-plan per-version literal edits (cumulative overrides)."""
        cfg = self.config
        rng = self._rng
        label_state = {cls.entity: cls.label for cls in classes}
        definition_state = {cls.entity: cls.definition for cls in classes}
        self._label_edits = [dict() for _ in range(cfg.versions + 1)]
        self._definition_edits = [dict() for _ in range(cfg.versions + 1)]
        for version in range(2, cfg.versions + 1):
            alive = [cls for cls in classes if cls.born <= version]
            for cls in sample_fraction(rng, alive, cfg.edit_fraction):
                label_state[cls.entity] = curation_edit(
                    rng, label_state[cls.entity], BIO_WORDS
                )
            for cls in sample_fraction(rng, alive, cfg.edit_fraction / 2):
                definition_state[cls.entity] = curation_edit(
                    rng, definition_state[cls.entity], BIO_WORDS
                )
            # Renames come with content changes (paper: "this change also
            # involves changes in the contents of the affected nodes").
            if version in (5, 8):
                group = VANISH_AND_RENAME if version == 5 else BULK_RENAME
                for cls in classes:
                    if cls.group == group and rng.random() < cfg.rename_edit_probability:
                        label_state[cls.entity] = curation_edit(
                            rng, label_state[cls.entity], BIO_WORDS
                        )
            self._label_edits[version] = dict(label_state)
            self._definition_edits[version] = dict(definition_state)
        self._label_edits[1] = {cls.entity: cls.label for cls in classes}
        self._definition_edits[1] = {cls.entity: cls.definition for cls in classes}

    def classes(self) -> list[OntologyClass]:
        if self._classes is None:
            self._classes = self._build_classes()
        return self._classes

    # ------------------------------------------------------------------
    # Per-version rendering
    # ------------------------------------------------------------------
    def class_uri(self, cls: OntologyClass, version: int) -> URI | None:
        """The class URI in *version*, or None when absent."""
        if cls.born > version:
            return None
        if cls.group == VANISH_AND_RENAME:
            if version <= 2:
                return OBO_OLD[cls.accession]
            if version <= 4:
                return None
            return OBO_NEW[cls.accession]
        if cls.group == BULK_RENAME:
            if version <= 7:
                return OBO_OLD[cls.accession]
            return OBO_NEW[cls.accession]
        return EFO[cls.accession]

    def graph(self, version_index: int) -> RDFGraph:
        """The RDF graph of one version (0-based index)."""
        version = version_index + 1
        if version_index in self._graphs:
            return self._graphs[version_index]
        cfg = self.config
        classes = self.classes()
        labels = self._label_edits[version]
        definitions = self._definition_edits[version]
        duplication = cfg.duplication_schedule[
            version_index % len(cfg.duplication_schedule)
        ]
        # Per-version RNG: duplication choices must not disturb the main
        # stream (graphs can be built in any order).
        rng = random.Random(cfg.seed * 1000 + version)

        graph = RDFGraph()
        entities: dict[int, URI] = {}
        uri_of = {
            cls.entity: self.class_uri(cls, version)
            for cls in classes
        }
        for cls in classes:
            subject = uri_of[cls.entity]
            if subject is None:
                continue
            entities[cls.entity] = subject
            graph.add(subject, RDF_TYPE, OWL_CLASS)
            graph.add(subject, RDFS_LABEL, lit(labels[cls.entity]))
            graph.add(subject, EFO_DEFINITION, lit(definitions[cls.entity]))
            graph.add(subject, EFO_NOTE, lit(cls.note))
            for synonym in cls.synonyms:
                graph.add(subject, EFO_SYNONYM, lit(synonym))
            for parent in cls.parents:
                parent_uri = uri_of.get(parent)
                if parent_uri is not None:
                    graph.add(subject, RDFS_SUBCLASS_OF, parent_uri)
            if cls.citation is not None:
                # The citation record: a blank node with two literal leaves.
                record = BlankNode(f"cite-{cls.entity}")
                graph.add(subject, EFO_CITATION, record)
                graph.add(record, EFO_SOURCE, lit(cls.citation[0]))
                graph.add(record, EFO_ACCESSION, lit(cls.citation[1]))
                if rng.random() < duplication:
                    # A bisimilar duplicate of the record (same contents,
                    # fresh blank identifier) — Figure 9's fluctuation.
                    duplicate = BlankNode(f"cite-{cls.entity}-dup")
                    graph.add(subject, EFO_CITATION, duplicate)
                    graph.add(duplicate, EFO_SOURCE, lit(cls.citation[0]))
                    graph.add(duplicate, EFO_ACCESSION, lit(cls.citation[1]))
        self._graphs[version_index] = graph
        self._entities[version_index] = entities
        return graph

    def graphs(self) -> list[RDFGraph]:
        return [self.graph(i) for i in range(self.config.versions)]

    def entities(self, version_index: int) -> dict[int, URI]:
        """Entity → class URI map of one version."""
        self.graph(version_index)
        return self._entities[version_index]

    def ground_truth(self, source_index: int, target_index: int) -> GroundTruth:
        """Class-level correspondence (used for sanity checks only)."""
        return GroundTruth.from_entity_maps(
            self.entities(source_index), self.entities(target_index)
        )

    def combined(self, source_index: int, target_index: int) -> tuple[CombinedGraph, GroundTruth]:
        return (
            combine(self.graph(source_index), self.graph(target_index)),
            self.ground_truth(source_index, target_index),
        )
