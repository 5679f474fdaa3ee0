"""Reusable block-sized arrays for the Monte Carlo kernel.

A workspace is a plain dict of flat arrays, one per name.  ``buffer`` hands
out a view of the requested shape over the first elements of the named
array, and replaces that array only when a request needs more elements.  A
caller that keeps one workspace across a loop whose first pass is its
largest (the kernel's blocks) allocates every array once and then writes
into the same memory, instead of paying for fresh temporaries, and their
page faults, on every pass.

A workspace outlives the job that filled it: each process keeps one spare
(``outage._SPARE``).  A job takes it, or starts an empty one while another
thread's job holds it, and hands its own back at its end, so a run after
the first writes into arrays already paged in, and a smaller config or a
short block gets views over the same memory.  A 500-drop default call
after the first takes no page fault in the kernel, where a fresh
workspace took about 990 (``getrusage``; the call's remaining 800 are the
analytic curve's), and ``perfbench/run.py``'s ``paper_default`` ran 5.1%
more drops/s.  The cost is that a block's arrays, 3.8 MiB for the default
config and at most ``LINK_BUDGET`` entries each for any config with at
least one drop per block, stay allocated between runs, beside the next
run's analytic curve: the benchmark's ``peak_rss_mb`` rose by 2.7-3.1 MiB
(6-7%) on every workload.

Only block-sized arrays, one entry per link or per user position of a
block, use a workspace: ``geometry.sample_hexagon_xy``'s ``uv``, ``pick``
(the rhombus picks) and ``xy``, the kernel's shadowing draw
(``channel``) and fading draw (``term``),
and ``outage._path_gains``'s ``dx``, ``dy``, ``along``, ``term`` and
``inside``.  Each measured load-bearing against the same tree with that one
group allocated plainly (2-vCPU x86 VM, Python 3.11, numpy 2.4):

- without ``_path_gains``'s arrays, ``perfbench/run.py``'s
  ``dense_tier2_60deg`` fell from 739-776 to 635-642 drops/s (three 10 s
  runs each), and a 100-drop dense call paid about 11,000 minor page faults
  instead of 1,150-1,400;
- with plain sampler arrays, the peak RSS of a process that runs ten
  500-drop default calls rose by 0.4 MiB; with plain draw arrays, by
  0.35 MiB.

Everything else allocates plainly.  The SIR and combining arrays hold one
entry per observed user, a seventh of a block or less with neighbour cells
(73 KiB on a default block, below malloc's mmap threshold), so malloc
already hands the same memory back block after block, and reusing them
measured no gain.
The analytic curve's neighbour grid cost 1,020-1,139 minor page faults per
curve with a workspace, and costs 744-803 without one; it keeps only its one
points array for every cell, where one per cell cost 1,079.

Names are shared by every function that takes the workspace, so each
function uses names of its own, and two arrays that are alive at the same
time never share a name; the fading draw (``outage._fading``'s uniforms,
turned into fading in place) borrows ``_path_gains``'s ``term``, which is
free until the link gains are built.
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
