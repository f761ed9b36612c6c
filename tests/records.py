"""Test helper for the package's `__slots__` records."""

from __future__ import annotations

import inspect


def replaced(record, **changes):
    """A new record of `record`'s class, built by its constructor from
    `record`'s own values with `changes` in place of the named arguments.

    Every argument passes through `__init__` again, so its validation runs;
    state that is not a constructor argument (`MonadSpec._band`) starts
    afresh.  Raises TypeError for a name the constructor does not take.
    """
    names = inspect.signature(type(record)).parameters
    unknown = sorted(set(changes) - set(names))
    if unknown:
        raise TypeError(f"{type(record).__name__} takes no argument {', '.join(unknown)}")
    return type(record)(**{name: changes.get(name, getattr(record, name)) for name in names})
