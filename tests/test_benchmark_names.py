"""The benchmark's per-layer spans must name functions cellsim still has.

``perfbench/spans.py`` skips a wrapped name the module no longer has, so a
refactor that inlines a traced function would read 0 in its per-layer
metric without any error.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_wrapped_layer_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wraps = importlib.import_module("probe").WRAPS
    missing = {
        attr
        for module, attr, _ in wraps
        if not callable(getattr(importlib.import_module(f"cellsim.{module}"), attr, None))
    }
    # The kernel computes link gains inline; no module calls draw_link_matrix.
    assert missing == {"draw_link_matrix"}
