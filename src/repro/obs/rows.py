"""Retained records stored as rows of atoms, read back as record objects.

A long run retains hundreds of thousands of records: completed spans
and storage transfers.  CPython's cyclic garbage collector re-scans
every tracked container at each full collection, and a dataclass
instance stays tracked for life.  An exact ``tuple`` whose items are
all atoms (``str``, ``int``, ``float``, ``bool``, ``None``) is
untracked at the first collection that sees it.

The row format, shared by every store that uses :class:`RecordView`:

- a row is one exact ``tuple``: the record's field values in the record
  dataclass's declaration order (:func:`row_fields`), atoms only;
- a field whose value is a mutable container (``Span.attrs``) is left
  out of those fields and folded into the row's tail instead, flattened
  (``key, value, key, value, ...``): a dict inside the tuple would keep
  the tuple tracked, and a second object per record would be one more
  retained object.  A value that is not an atom is kept as is, and
  keeps its row tracked;
- the owner appends rows to its own list or deque; readers go through
  the view, which builds a fresh record per access.
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
    """Read-only sequence over a store of rows.

    ``rows`` is the owner's list or deque; item ``i`` is
    ``build(rows[i])``, built on every access.  Items compare equal to
    the records the owner was given, but they are new objects each
    time: changing one leaves the store unchanged.  Only :meth:`clear`
    mutates the store through the view.
    """

    __slots__ = ("_build", "_rows")

    def __init__(self, build: Callable, rows) -> None:
        self._build = build
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return map(self._build, self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step < 0:
                return list(self)[index]
            return list(map(self._build, islice(self._rows, start, stop, step)))
        return self._build(self._rows[index])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, RecordView)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"

    def clear(self) -> None:
        self._rows.clear()
