"""The package's slotted value type: a frozen dataclass with ``__slots__``.

``dataclass(frozen=True, slots=True)`` builds a new class for the slots,
but on Python 3.11 its generated ``__setattr__`` and ``__delattr__`` still
name the class it replaced.  Assigning or deleting a name that is
not a field then reaches ``super(old_class, self)`` and raises TypeError
instead of FrozenInstanceError.  ``frozen_dataclass`` installs methods
that refuse every name alike.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass

__all__ = ["frozen_dataclass"]


def _refuse_assignment(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen_dataclass(**options):
    """``dataclass(frozen=True, slots=True, **options)`` whose instances refuse
    every assignment and deletion with FrozenInstanceError.

    Construction, ``__post_init__`` (through ``object.__setattr__``), copy
    and pickle are the dataclass's own.
    """

    def wrap(cls):
        cls = dataclass(frozen=True, slots=True, **options)(cls)
        cls.__setattr__ = _refuse_assignment
        cls.__delattr__ = _refuse_deletion
        return cls

    return wrap
