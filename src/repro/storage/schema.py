"""Table schemas: ordered, typed, named columns with light metadata."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CatalogError
from repro.storage.types import DataType
from repro.util.text import normalize_identifier


#: The two ``information_schema`` tables every catalog derives from its
#: stored tables (see :meth:`repro.storage.catalog.Catalog.table`).
TABLES_NAME = "information_schema.tables"
COLUMNS_NAME = "information_schema.columns"


def is_information_schema(name: str) -> bool:
    """Whether ``name`` lies in the ``information_schema`` namespace, which
    the catalog derives and keeps read-only: no stored table may take such
    a name, and only :data:`TABLES_NAME`/:data:`COLUMNS_NAME` resolve."""
    return name.lower().startswith("information_schema.")


@dataclass(frozen=True)
class Column:
    """One column of a table schema.

    ``description`` carries human-facing semantics (used by the semantic
    search layer and the sleeper agents); ``primary_key`` marks the table's
    row identity for merge/conflict detection in the branched store.
    """

    name: str
    data_type: DataType
    nullable: bool = True
    primary_key: bool = False
    description: str = ""


@dataclass(frozen=True)
class TableSchema:
    """An immutable ordered collection of :class:`Column` definitions."""

    name: str
    columns: tuple[Column, ...]
    description: str = ""
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        index: dict[str, int] = {}
        for position, column in enumerate(self.columns):
            key = normalize_identifier(column.name)
            if key in index:
                raise CatalogError(f"duplicate column {column.name!r} in table {self.name!r}")
            index[key] = position
        object.__setattr__(self, "_index", index)

    # -- lookups -----------------------------------------------------------

    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def has_column(self, name: str) -> bool:
        return normalize_identifier(name) in self._index

    def position_of(self, name: str) -> int:
        key = normalize_identifier(name)
        if key not in self._index:
            raise CatalogError(f"table {self.name!r} has no column {name!r}")
        return self._index[key]

    def column(self, name: str) -> Column:
        return self.columns[self.position_of(name)]

    def primary_key_positions(self) -> list[int]:
        return [i for i, column in enumerate(self.columns) if column.primary_key]

    # -- derivation --------------------------------------------------------

    def with_description(self, description: str) -> "TableSchema":
        return TableSchema(self.name, self.columns, description)

    def renamed(self, new_name: str) -> "TableSchema":
        return TableSchema(new_name, self.columns, self.description)

    def fingerprint_payload(self) -> tuple:
        """Stable payload describing the schema, for staleness detection."""
        return (
            normalize_identifier(self.name),
            tuple(
                (normalize_identifier(c.name), c.data_type.value, c.nullable, c.primary_key)
                for c in self.columns
            ),
        )
