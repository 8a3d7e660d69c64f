"""Retained records stored as rows of atoms, read back as record objects.

A long run retains hundreds of thousands of records: completed spans
and storage transfers.  CPython's cyclic garbage collector re-scans
every tracked container at each full collection, and a dataclass
instance stays tracked for life.  An exact ``tuple`` whose items are
all atoms (``str``, ``int``, ``float``, ``bool``, ``None``) is
untracked at the first collection that sees it, and so is a ``dict``
holding only atoms.

The row format, shared by every store that uses :class:`RecordView`:

- a row is an exact ``tuple`` of the record's field values, in the
  record dataclass's declaration order (:func:`row_fields`), and holds
  atoms only;
- a field whose value is a mutable container (``Span.attrs``) is left
  out of the row and kept in a parallel column: a dict inside the tuple
  would keep the tuple tracked, and an extra tuple per row would be an
  extra retained object;
- the owner appends to its own columns and keeps them the same length;
  readers go through the view, which builds a fresh record per access.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from itertools import islice
from operator import attrgetter, eq
from typing import Callable

__all__ = ["RecordView", "row_fields", "row_of"]


def row_fields(record_type: type, *, omit: tuple[str, ...] = ()) -> tuple[str, ...]:
    """The row layout of dataclass ``record_type``: its fields minus ``omit``."""
    return tuple(
        f.name for f in dataclasses.fields(record_type) if f.name not in omit
    )


def row_of(record_type: type, *, omit: tuple[str, ...] = ()) -> Callable:
    """A callable turning one record into its row (one C-level call)."""
    return attrgetter(*row_fields(record_type, omit=omit))


class RecordView(Sequence):
    """Read-only sequence over parallel row columns.

    ``columns`` are the owner's lists or deques; item ``i`` is
    ``build(columns[0][i], columns[1][i], ...)``, built on every access.
    Items compare equal to the records the owner was given, but they are
    new objects each time: changing one leaves the store unchanged.
    Only :meth:`clear` mutates the store through the view.
    """

    __slots__ = ("_build", "_columns")

    def __init__(self, build: Callable, *columns) -> None:
        self._build = build
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self):
        return map(self._build, *self._columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step < 0:
                return list(self)[index]
            cells = (islice(column, start, stop, step) for column in self._columns)
            return list(map(self._build, *cells))
        return self._build(*[column[index] for column in self._columns])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, RecordView)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"

    def clear(self) -> None:
        for column in self._columns:
            column.clear()
