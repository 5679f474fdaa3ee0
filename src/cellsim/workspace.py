"""Reusable arrays for the Monte Carlo kernel and the analytic neighbor grid.

A workspace is a plain dict of flat arrays, one per name.  ``buffer`` hands
out a view of the requested shape over the first elements of the named
array, and replaces that array only when a request needs more elements.  A
caller that keeps one workspace across a loop whose first pass is its
largest (the kernel's blocks, the grid's cells) allocates every array once
and then writes into the same memory, instead of paying for fresh
temporaries, and their page faults, on every pass.

Names are shared by every function that takes the workspace, so each
function uses names of its own, and two arrays that are alive at the same
time never share a name.
"""

from __future__ import annotations

import math

import numpy as np


def buffer(work: dict | None, name: str, shape: tuple, dtype=float) -> np.ndarray:
    """An array of ``shape`` to be overwritten: a view into ``work[name]``.

    With ``work`` None the array is freshly allocated, so a function that
    takes an optional workspace has one code path.
    """
    if work is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    flat = work.get(name)
    if flat is None or flat.size < size or flat.dtype != dtype:
        flat = work[name] = np.empty(size, dtype)
    return flat[:size].reshape(shape)
