"""The QoS vocabulary: which metric and configuration terms mean what, where.

Every term is scoped to a *concept*, one of the ten layers an IoT
application is built from (device, edge, cloud, and the seven service
concepts in between).  The same spelling may appear under several concepts
with different semantics: ``throughput`` is bytes per second for an
ingestion pipeline but queries per second for a database.

A :class:`Catalog` is immutable once built.  Deployments extend or adjust
it by merging an overlay catalog on top of the builtin one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from . import _catalog_data
from .constraints import KNOWN_UNITS, _is_name
from .errors import SchemaViolationError, VocabularyIntegrityError
from .jsonio import (
    _IDENT_RULE, _as_str, _want_list, _want_object, _want_str, emit_json, read_json,
)

__all__ = [
    "TABLE_CONCEPTS",
    "APPLICATION_CONCEPT",
    "VALID_CONCEPTS",
    "VALUE_TYPES",
    "DIRECTIONS",
    "AGGREGATORS",
    "TERM_KINDS",
    "VocabularyEntry",
    "Catalog",
    "load_builtin_catalog",
    "application_slo_terms",
]

# The ten concepts with builtin vocabulary tables.
TABLE_CONCEPTS = (
    "iot_device",
    "edge_resource",
    "cloud_resource",
    "sensing",
    "networking",
    "ingestion",
    "stream_processing",
    "batch_processing",
    "machine_learning",
    "database",
)

# Pseudo-concept for SLOs on the application as a whole.
APPLICATION_CONCEPT = "application"

VALID_CONCEPTS = TABLE_CONCEPTS + (APPLICATION_CONCEPT,)

VALUE_TYPES = ("numeric", "boolean", "enumerated", "text")
DIRECTIONS = ("higher_is_better", "lower_is_better", "target_equality", "none")
AGGREGATORS = ("mean", "max", "min", "ratio", "sum", "none")
TERM_KINDS = ("qos_metric", "configuration_parameter")


@dataclass(frozen=True)
class VocabularyEntry:
    """One term of the vocabulary, scoped to a concept."""

    term: str
    concept: str
    description: str
    value_type: str
    canonical_unit: str
    direction: str
    aggregator: str
    kind: str
    aliases: tuple[str, ...] = ()

    def __post_init__(self):
        if self.concept not in VALID_CONCEPTS:
            raise ValueError(f"unknown concept: {self.concept!r}")
        if self.value_type not in VALUE_TYPES:
            raise ValueError(f"unknown value type: {self.value_type!r}")
        if self.canonical_unit not in KNOWN_UNITS:
            raise ValueError(f"unknown unit: {self.canonical_unit!r}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction: {self.direction!r}")
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"unknown aggregator: {self.aggregator!r}")
        if self.kind not in TERM_KINDS:
            raise ValueError(f"unknown term kind: {self.kind!r}")
        if self.value_type == "boolean":
            # Booleans have no ordering and nothing to fold.
            if self.direction != "target_equality" or self.aggregator != "none":
                raise ValueError(
                    f"{self.term}: boolean terms require target_equality "
                    "direction and aggregator none"
                )

    def matches_term(self, name: str) -> bool:
        """True when ``name`` is this entry's term or one of its aliases."""
        return name == self.term or name in self.aliases

    def to_dict(self) -> dict:
        data = {
            "term": self.term,
            "concept": self.concept,
            "description": self.description,
            "value_type": self.value_type,
            "canonical_unit": self.canonical_unit,
            "direction": self.direction,
            "aggregator": self.aggregator,
            "kind": self.kind,
        }
        if self.aliases:
            data["aliases"] = list(self.aliases)
        return data

    @classmethod
    def from_dict(cls, data: dict, pointer: str = "") -> "VocabularyEntry":
        fields = ("term", "concept", "description", "value_type",
                  "canonical_unit", "direction", "aggregator", "kind")
        _want_object(data, pointer, {*fields, "aliases"})
        values = {key: _want_str(data, key, pointer) for key in fields}
        aliases = tuple(
            _as_str(alias, f"{pointer}/aliases/{i}")
            for i, alias in enumerate(_want_list(data, "aliases", pointer, default=[]))
        )
        # only non-keyword identifiers can be named by agreement text or interchange
        names = {f"{pointer}/term": values["term"]}
        names.update((f"{pointer}/aliases/{i}", alias) for i, alias in enumerate(aliases))
        for where, name in names.items():
            if not _is_name(name):
                raise SchemaViolationError(where, _IDENT_RULE)
        try:
            return cls(**values, aliases=aliases)
        except ValueError as exc:
            raise SchemaViolationError(pointer or "/", str(exc)) from None


class Catalog:
    """An immutable set of vocabulary entries with alias resolution.

    Iteration, ``len``, :meth:`concepts` and :meth:`to_json` cover only the
    catalog's own entries; :meth:`lookup` and :meth:`applicable_terms` also
    see the builtin application terms beneath them.

    Integrity rules, checked at construction:

    * (term, concept) pairs are unique;
    * an alias never collides with any canonical term or any other alias,
      across the whole catalog.
    """

    def __init__(self, entries: Iterable[VocabularyEntry]):
        self._entries: dict[tuple[str, str], VocabularyEntry] = {}
        for entry in entries:
            key = (entry.term, entry.concept)
            if key in self._entries:
                raise VocabularyIntegrityError(
                    f"duplicate term {entry.term!r} for concept {entry.concept!r}"
                )
            self._entries[key] = entry

        canonical_terms = {term for term, _ in self._entries}
        seen_aliases: dict[str, tuple[str, str]] = {}
        self._alias_index: dict[tuple[str, str], VocabularyEntry] = {}
        for entry in self._entries.values():
            for alias in entry.aliases:
                if alias in canonical_terms:
                    raise VocabularyIntegrityError(
                        f"alias {alias!r} collides with a canonical term"
                    )
                if alias in seen_aliases:
                    raise VocabularyIntegrityError(
                        f"alias {alias!r} defined more than once"
                    )
                seen_aliases[alias] = (entry.term, entry.concept)
                self._alias_index[(alias, entry.concept)] = entry

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[VocabularyEntry]:
        return iter(sorted(self._entries.values(), key=lambda e: (e.concept, e.term)))

    def lookup(self, term: str, concept: str) -> VocabularyEntry | None:
        """Resolve a term (canonical or alias) within a concept, or None.

        Own canonical terms win, then own aliases, then, for ``application``,
        the builtin :func:`application_slo_terms`.  Every layer resolves here.
        """
        entry = self._entries.get((term, concept))
        if entry is None:
            entry = self._alias_index.get((term, concept))
        if entry is None and concept == APPLICATION_CONCEPT:
            entry = _application_terms_by_name().get(term)
        return entry

    def applicable_terms(self, concept: str, kind: str | None = None) -> list[VocabularyEntry]:
        """All entries for a concept, sorted by term, optionally by kind.

        For ``application``, own entries replace same-named builtin ones.
        """
        found = [e for e in self._entries.values() if e.concept == concept]
        if concept == APPLICATION_CONCEPT:
            own = {e.term for e in found}
            found += [e for e in application_slo_terms() if e.term not in own]
        if kind is not None:
            found = [e for e in found if e.kind == kind]
        return sorted(found, key=lambda e: e.term)

    def concepts(self) -> list[str]:
        """Concepts that have at least one entry, in table order."""
        present = {e.concept for e in self._entries.values()}
        return [c for c in VALID_CONCEPTS if c in present]

    def merge(self, overlay: "Catalog | Iterable[VocabularyEntry]") -> "Catalog":
        """New catalog with overlay entries replacing same (term, concept)."""
        merged = dict(self._entries)
        for entry in overlay:
            merged[(entry.term, entry.concept)] = entry
        return Catalog(merged.values())

    def to_json(self) -> str:
        """Serialize as a JSON array, sorted by (concept, term)."""
        return emit_json([e.to_dict() for e in self])

    @classmethod
    def from_json(cls, text: str | bytes) -> "Catalog":
        """Read a catalog (an overlay, say) from a JSON array of entries."""
        data = read_json(text)
        if not isinstance(data, list):
            raise SchemaViolationError("/", "catalog must be a JSON array")
        return cls(VocabularyEntry.from_dict(item, pointer=f"/{i}")
                   for i, item in enumerate(data))


def _entry(concept: str, row: tuple[str, ...], aliases: tuple[str, ...] = ()) -> VocabularyEntry:
    """The entry of a catalog row ``(term, value type, canonical unit,
    direction, aggregator, kind, description)`` for ``concept``."""
    term, value_type, unit, direction, aggregator, kind, description = row
    return VocabularyEntry(term=term, concept=concept, description=description,
                           value_type=value_type, canonical_unit=unit, direction=direction,
                           aggregator=aggregator, kind=kind, aliases=aliases)


def _build_entries() -> tuple[VocabularyEntry, ...]:
    return tuple(_entry(concept, row, _catalog_data.ALIASES.get((concept, row[0]), ()))
                 for concept in TABLE_CONCEPTS
                 for row in _catalog_data.ROWS_BY_CONCEPT[concept])


@lru_cache(maxsize=1)
def load_builtin_catalog() -> Catalog:
    """The builtin vocabulary; the same object on every call."""
    return Catalog(_build_entries())


@lru_cache(maxsize=1)
def application_slo_terms() -> tuple[VocabularyEntry, ...]:
    """Metrics allowed in SLOs on the application as a whole.

    These live outside :func:`load_builtin_catalog` so the exported catalog
    remains exactly the per-concept tables.  Every :class:`Catalog` resolves
    them beneath its own entries: builtin tables, then these terms, then any
    overlay.
    """
    return tuple(_entry(APPLICATION_CONCEPT, row) for row in _catalog_data.APPLICATION_ROWS)


@lru_cache(maxsize=1)
def _application_terms_by_name() -> dict[str, VocabularyEntry]:
    return {entry.term: entry for entry in application_slo_terms()}
