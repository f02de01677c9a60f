"""Dtype resolution shared by the interpreter and the compiled engine.

``"bfloat16"`` has no numpy dtype in this environment, so both engines
emulate it identically: compute in float32 on inputs rounded to the
bfloat16 grid.  Keeping the resolution logic here (rather than in
:mod:`repro.runtime.compiled`) lets :mod:`repro.runtime.executor` use it
without a circular import — ``compiled`` already imports from
``executor``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["resolve_dtype", "bf16_round", "all_finite", "sum_finite",
           "QUIET_SUM"]

#: The floating-point state :func:`sum_finite` runs under: a sum that
#: overflows, or meets inf - inf, is an answer there, not an error.
QUIET_SUM = {"over": "ignore", "invalid": "ignore"}


def resolve_dtype(dtype) -> tuple[np.dtype, str]:
    """``(compute dtype, cache token)`` for a requested dtype.

    ``"bfloat16"`` computes in float32 with inputs rounded to the
    bfloat16 grid, but keeps its own cache token so bf16 and f32 plans
    never alias.
    """
    if isinstance(dtype, str) and dtype.lower() in ("bfloat16", "bf16"):
        return np.dtype(np.float32), "bfloat16"
    dt = np.dtype(dtype)
    return dt, dt.name


def bf16_round(arr: np.ndarray) -> np.ndarray:
    """Round a float32 array to the bfloat16 grid (round-nearest-even)."""
    u = np.ascontiguousarray(arr, dtype=np.float32).copy().view(np.uint32)
    finite = np.isfinite(u.view(np.float32))
    u[finite] += 0x7FFF + ((u[finite] >> 16) & 1)
    u &= np.uint32(0xFFFF0000)
    return u.view(np.float32)


def all_finite(arr: np.ndarray) -> bool:
    """True iff every element is finite: :func:`sum_finite` under its
    own ``np.errstate``.  A check over many arrays enters
    :data:`QUIET_SUM` once around its loop and calls :func:`sum_finite`
    instead — entering an errstate costs about as much as summing a
    64x64 array."""
    with np.errstate(**QUIET_SUM):
        return sum_finite(arr)


def sum_finite(arr: np.ndarray) -> bool:
    """True iff every element is finite, decided by one reduction; call
    it under ``np.errstate(**QUIET_SUM)``.

    NaN and +-inf survive a sum, so a finite total proves every element
    finite without a per-element bool array; a non-finite total (or the
    overflow of large finite values) falls through to the exact test.
    """
    total = np.add.reduce(arr, axis=None)
    return math.isfinite(total) or bool(np.isfinite(arr).all())
