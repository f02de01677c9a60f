"""Flyweight construction for the immutable value objects a schedule keeps.

Every compile re-creates the same small vocabulary of frozen values — the
``ScheduleConfig`` lattice points and the SMG's ``Mapping``/``DataSpace``/
``IterationSpace`` nodes — and a process that retains many schedules (the
serving cache, a benchmark holding every pass for its exactness checks)
would otherwise hold one copy per compile.  ``cls.of(...)`` returns the one
canonical instance per value instead.  The tables are weak-valued: an
instance lives exactly as long as some schedule references it.  Plain
construction still works and compares equal; only identity is shared.
"""

from __future__ import annotations

import weakref


class Flyweight:
    """Mixin for frozen, hashable dataclasses."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._instances = weakref.WeakValueDictionary()

    @classmethod
    def of(cls, *args, **kwargs):
        """The canonical instance equal to ``cls(*args, **kwargs)``."""
        fresh = cls(*args, **kwargs)
        # Field values in declaration order: the same tuple the generated
        # __eq__/__hash__ compare, so one table entry per distinct value.
        return cls._instances.setdefault(tuple(vars(fresh).values()), fresh)
