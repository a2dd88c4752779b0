"""Virtual ``information_schema`` tables.

Rebuilt on demand from the live catalog so agents can explore metadata the
way they would on PostgreSQL (``SELECT table_name FROM
information_schema.tables``). ``row_count`` is included in the tables view
because exploring table sizes is one of the paper's canonical metadata
probes.
"""

from __future__ import annotations

from repro.storage.catalog import Catalog
from repro.storage.schema import Column, TableSchema, is_information_schema
from repro.storage.table import Table
from repro.storage.types import DataType

TABLES_NAME = "information_schema.tables"
COLUMNS_NAME = "information_schema.columns"

_TABLES_SCHEMA = TableSchema(
    name=TABLES_NAME,
    columns=(
        Column("table_name", DataType.TEXT, nullable=False),
        Column("row_count", DataType.INTEGER, nullable=False),
        Column("description", DataType.TEXT),
    ),
    description="catalog of user tables",
)

_COLUMNS_SCHEMA = TableSchema(
    name=COLUMNS_NAME,
    columns=(
        Column("table_name", DataType.TEXT, nullable=False),
        Column("column_name", DataType.TEXT, nullable=False),
        Column("ordinal_position", DataType.INTEGER, nullable=False),
        Column("data_type", DataType.TEXT, nullable=False),
        Column("is_nullable", DataType.BOOLEAN, nullable=False),
        Column("is_primary_key", DataType.BOOLEAN, nullable=False),
        Column("description", DataType.TEXT),
    ),
    description="catalog of user table columns",
)


def build_tables(catalog: Catalog) -> tuple[Table, Table]:
    """Materialise both info-schema tables from the current catalog state."""
    tables = Table(_TABLES_SCHEMA)
    columns = Table(_COLUMNS_SCHEMA)
    for schema in sorted(catalog.schemas(), key=lambda s: s.name.lower()):
        if is_information_schema(schema.name):
            continue
        table = catalog.table(schema.name)
        tables.insert((schema.name, table.num_rows, schema.description))
        for position, column in enumerate(schema.columns, start=1):
            columns.insert(
                (
                    schema.name,
                    column.name,
                    position,
                    column.data_type.value,
                    column.nullable,
                    column.primary_key,
                    column.description,
                )
            )
    return tables, columns
