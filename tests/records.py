"""Test helper for the package's `__slots__` records."""

from __future__ import annotations


def replaced(record, **changes):
    """A new record of `record`'s class, built by its constructor from
    `record`'s own values with `changes` in place of the named fields.

    Records are immutable, so this is how a test varies one.  Every field
    passes by name: `Record.__init__` takes a record's fields by name, and a
    record with its own constructor takes them as its parameters, in order
    (see `tests/test_records.py`).  A record holds nothing else, so every
    value passes through the constructor again and its validation runs.
    Raises the constructor's TypeError for a name that is not a field.
    """
    values = {name: getattr(record, name) for name in type(record)._FIELDS}
    return type(record)(**{**values, **changes})
