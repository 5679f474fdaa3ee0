"""The benchmark's per-layer spans must name functions cellsim still has and calls.

``perfbench/spans.py`` skips a wrapped name the module no longer has, and a
function the code reaches by another name than the wrapped one is never
timed, so a refactor that inlines or moves a traced function would read 0 in
its per-layer metric without any error.
"""

import importlib
from collections import Counter
from pathlib import Path

from cellsim import scenario
from cellsim.scenario import ScenarioConfig

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


def test_every_wrapped_function_is_called_through_its_namespace(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wraps = importlib.import_module("probe").WRAPS
    calls = Counter()
    for module, attr, _ in wraps:
        namespace = importlib.import_module(f"cellsim.{module}")
        fn = getattr(namespace, attr, None)
        if fn is None:
            continue

        def counted(*args, _fn=fn, _key=(module, attr), **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(namespace, attr, counted)
    # The benchmark itself calls run_experiment and render_csv, as here.
    scenario.render_csv(scenario.run_experiment(ScenarioConfig(n_drops=20)))
    uncalled = {attr for module, attr, _ in wraps if not calls[module, attr]}
    assert uncalled == {"draw_link_matrix"}
