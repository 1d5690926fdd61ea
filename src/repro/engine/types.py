"""Core value types and schema objects for the relational substrate."""

from enum import Enum

import numpy as np

from repro.common import CatalogError


class DataType(Enum):
    """Supported column data types."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"

    @property
    def numpy_dtype(self):
        """The NumPy dtype used to store a column of this type."""
        if self is DataType.INT:
            return np.int64
        if self is DataType.FLOAT:
            return np.float64
        return object

    def coerce(self, value):
        """Coerce a Python value to this type (None passes through).

        INT takes integral numbers and integer text; a number with a
        fraction (``1.7``) raises ``ValueError`` instead of truncating.
        """
        if value is None:
            return None
        if self is DataType.INT:
            out = int(value)
            if out != value and not isinstance(value, str):
                raise ValueError("%r is not an integer" % (value,))
            return out
        if self is DataType.FLOAT:
            return float(value)
        return str(value)

    @classmethod
    def parse(cls, name):
        """Parse a SQL type name (``INT``/``INTEGER``/``FLOAT``/``REAL``/
        ``DOUBLE``/``TEXT``/``VARCHAR``/``STRING``) into a :class:`DataType`."""
        key = name.strip().upper()
        mapping = {
            "INT": cls.INT,
            "INTEGER": cls.INT,
            "BIGINT": cls.INT,
            "FLOAT": cls.FLOAT,
            "REAL": cls.FLOAT,
            "DOUBLE": cls.FLOAT,
            "TEXT": cls.TEXT,
            "VARCHAR": cls.TEXT,
            "STRING": cls.TEXT,
        }
        if key not in mapping:
            raise CatalogError("unknown SQL type %r" % (name,))
        return mapping[key]


class ColumnSchema:
    """Schema entry for one column.

    Attributes:
        name: column name, folded to lower case (identifiers are
            case-insensitive; the stored name is the key).
        dtype: the :class:`DataType`.
        sensitive: ground-truth flag used by the security experiments —
            whether the column holds sensitive data (SSNs, emails, ...).
    """

    __slots__ = ("name", "dtype", "sensitive")

    def __init__(self, name, dtype, sensitive=False):
        if not name:
            raise CatalogError("column name must be non-empty")
        self.name = name.lower()
        self.dtype = dtype if isinstance(dtype, DataType) else DataType.parse(dtype)
        self.sensitive = sensitive

    def __repr__(self):
        return "ColumnSchema(%r, %s)" % (self.name, self.dtype.value)

    def __eq__(self, other):
        return (
            isinstance(other, ColumnSchema)
            and self.name == other.name
            and self.dtype == other.dtype
        )

    def __hash__(self):
        return hash((self.name, self.dtype))


class TableSchema:
    """Ordered collection of :class:`ColumnSchema` with name lookup.

    The table name is folded to lower case like every column name; the
    lookups fold their argument, so a name resolves in any case.
    """

    def __init__(self, name, columns):
        if not name:
            raise CatalogError("table name must be non-empty")
        self.name = name.lower()
        self.columns = list(columns)
        self._index = {}
        for i, col in enumerate(self.columns):
            if col.name in self._index:
                raise CatalogError(
                    "duplicate column %r in table %r" % (col.name, self.name)
                )
            self._index[col.name] = i
        #: Column names in declaration order (a schema never changes).
        self.names = tuple(self._index)

    def column(self, name):
        """Return the :class:`ColumnSchema` for ``name`` (case-insensitive)."""
        try:
            return self.columns[self._index[name.lower()]]
        except KeyError:
            raise CatalogError(
                "table %r has no column %r" % (self.name, name)
            )

    def column_index(self, name):
        """Return the ordinal position of ``name``."""
        try:
            return self._index[name.lower()]
        except KeyError:
            raise CatalogError(
                "table %r has no column %r" % (self.name, name)
            )

    def has_column(self, name):
        """Whether a column with this name exists."""
        return name.lower() in self._index

    @property
    def column_names(self):
        """Column names in declaration order."""
        return list(self.names)

    def __len__(self):
        return len(self.columns)

    def __repr__(self):
        return "TableSchema(%r, %d columns)" % (self.name, len(self.columns))
