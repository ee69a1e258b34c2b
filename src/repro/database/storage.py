"""In-memory columnar storage.

A :class:`Table` stores named columns of equal length; a :class:`Database`
is a catalog of tables.  This is the execution substrate that generated
interfaces run their current query against when the user interacts with a
widget.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple


class SchemaError(Exception):
    """Raised for malformed tables or unknown tables/columns."""


class Table:
    """An immutable, column-oriented table.

    Args:
        name: table name, used in FROM clauses.
        columns: ordered mapping from column name to its values.  All
            columns must have equal length.
    """

    def __init__(self, name: str, columns: Mapping[str, Sequence[Any]]) -> None:
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(
                f"table {name!r} has ragged columns (lengths {sorted(lengths)})"
            )
        self.name = name
        self._columns: Dict[str, List[Any]] = {
            col: list(values) for col, values in columns.items()
        }
        self._nrows = lengths.pop() if lengths else 0

    # -- shape ----------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._nrows

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    def has_column(self, name: str) -> bool:
        return name in self._columns

    def column(self, name: str) -> List[Any]:
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r} "
                f"(columns: {', '.join(self._columns)})"
            ) from None

    def column_type(self, name: str) -> type:
        """Best-effort Python type of a column (type of first non-null)."""
        for value in self.column(name):
            if value is not None:
                return type(value)
        return type(None)

    # -- access ---------------------------------------------------------------

    def row(self, index: int) -> Dict[str, Any]:
        return {col: values[index] for col, values in self._columns.items()}

    def rows(self) -> Iterator[Dict[str, Any]]:
        for i in range(self._nrows):
            yield self.row(i)

    def select_rows(self, indexes: Iterable[int]) -> "Table":
        """Return a new table containing only the given row indexes."""
        index_list = list(indexes)
        return Table(
            self.name,
            {
                col: [values[i] for i in index_list]
                for col, values in self._columns.items()
            },
        )

    def __len__(self) -> int:
        return self._nrows

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, {self.num_rows} rows x "
            f"{self.num_columns} cols)"
        )


class Database:
    """A named collection of tables."""

    def __init__(self, tables: Iterable[Table] = ()) -> None:
        self._tables: Dict[str, Table] = {}
        for table in tables:
            self.add_table(table)

    def add_table(self, table: Table) -> None:
        if table.name in self._tables:
            raise SchemaError(f"duplicate table {table.name!r}")
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(
                f"unknown table {name!r} (tables: {', '.join(self._tables)})"
            ) from None

    @property
    def table_names(self) -> List[str]:
        return list(self._tables)

    def __repr__(self) -> str:
        return f"Database(tables={self.table_names})"


class ResultSet:
    """The output of executing a query: named columns plus row count."""

    def __init__(self, columns: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
        self.columns = list(columns)
        self.rows = [tuple(row) for row in rows]
        for row in self.rows:
            if len(row) != len(self.columns):
                raise SchemaError(
                    f"row width {len(row)} != header width {len(self.columns)}"
                )

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> List[Any]:
        try:
            index = self.columns.index(name)
        except ValueError:
            raise SchemaError(f"result has no column {name!r}") from None
        return [row[index] for row in self.rows]

    def first(self) -> Optional[Tuple[Any, ...]]:
        return self.rows[0] if self.rows else None

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"ResultSet(columns={self.columns}, rows={self.num_rows})"
