"""The package names the benchmark in ``perfbench/`` reads.

``perfbench/tracer.py`` wraps every ``module:attr`` target of the layer map
``perfbench/layers.py`` by name, and the units of ``perfbench/workloads.py``
call the public API, the solve reports' snapshot API among it
(``SolveConfig.snapshot_stride``, ``SolveReport.snapshots``,
``SolveReport.snapshot_at``).  A deleted or renamed name fails here, in the
tier-1 tests, and not first in a benchmark run; so does a sweep unit's config
that the harness no longer accepts.  ``perfbench/`` is only
imported, as its scripts import each other (by bare module name).
"""

import importlib
import sys
from pathlib import Path

import pytest

import stochwave.harness  # noqa: F401  (the tracer finds the modules in sys.modules)

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_MODULES = ("workloads", "layers", "tracer")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    for name in _MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield {name: importlib.import_module(name) for name in _MODULES}
    for name in _MODULES:
        sys.modules.pop(name, None)


def _bound(target: str):
    """What a ``module:function`` or ``module:Class.method`` target names now."""
    module_name, _, attr = target.partition(":")
    module = sys.modules[f"stochwave.{module_name}"]
    owner, _, name = attr.rpartition(".")
    return vars(getattr(module, owner))[name] if owner else getattr(module, name)


def test_the_tracer_wraps_every_target_of_the_layer_map(perfbench):
    targets = [t for layer in perfbench["layers"].LAYERS for t in layer.targets]
    originals = {t: _bound(t) for t in targets}
    tracer = perfbench["tracer"].Tracer("tier-1")
    try:
        tracer.install(perfbench["layers"].LAYERS)
        for t in targets:
            assert _bound(t).__wrapped__ is originals[t], t
    finally:
        tracer.uninstall()
    assert {t: _bound(t) for t in targets} == originals


@pytest.mark.parametrize("workload", ["mc-isometry", "picard-solve", "sweep-ensemble"])
def test_every_reduced_workload_unit_runs_traced(perfbench, workload, tmp_path):
    # the reduced sizes of the benchmark self-test: this checks the names a
    # unit reads and the tracer's hooks, not the verdicts
    bench = perfbench["workloads"]
    tracer = perfbench["tracer"].Tracer("tier-1")
    try:
        tracer.install(perfbench["layers"].LAYERS)
        for unit in bench.WORKLOADS[workload].build(bench.DEFAULT_SEED, tmp_path, True):
            checks = unit.run()
            assert checks and all(ok in (True, False) for _, ok in checks), unit.label
    finally:
        tracer.uninstall()
    assert tracer.calls


@pytest.mark.parametrize("reduced", [False, True])
def test_every_sweep_unit_config_parses(perfbench, reduced, tmp_path):
    # building the sweep units parses each shipped config with the seed, output and
    # unread threads the workload writes, and the reduced pass's SWEEP_REDUCED overrides
    bench = perfbench["workloads"]
    units = bench.WORKLOADS["sweep-ensemble"].build(bench.DEFAULT_SEED, tmp_path, reduced)
    assert [unit.label for unit in units] == list(bench.SWEEP_ROWS)
