"""Test helper for the package's `__slots__` records."""

from __future__ import annotations


def replaced(record, **changes):
    """A new record of `record`'s class, built by its constructor from
    `record`'s own values with `changes` in place of the named arguments.

    Records are immutable, so this is how a test varies one.  A record's
    fields are its constructor's parameters, in order (see
    `tests/test_records.py`), and a record holds nothing else, so every
    argument passes through `__init__` again and its validation runs.
    Raises TypeError for a name the constructor does not take.
    """
    names = type(record)._FIELDS
    unknown = sorted(set(changes) - set(names))
    if unknown:
        raise TypeError(f"{type(record).__name__} takes no argument {', '.join(unknown)}")
    return type(record)(**{name: changes.get(name, getattr(record, name)) for name in names})
