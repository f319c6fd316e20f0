"""The benchmark's layer tracer (bench/tracing.py) changes no result.

A traced benchmark run wraps every public function of every conefaces
module; its exact_linalg wrapper reads the matrix shape from the first
argument.  Each call below runs untraced and traced, with the caches
emptied before each run so that the traced one computes everything again,
and both must give the same result.
"""

import importlib.util
from pathlib import Path

import pytest

from conefaces import cli
from conefaces.constructions import EXAMPLE_SIX_POINTS
from conefaces.ideal_components import face_report
from conefaces.sampling import random_configuration

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _both(tracer, call):
    """(untraced result, traced result, spans the traced run recorded)."""
    tracer.clear_caches()
    plain = call()
    tracer.clear_caches()
    before = len(tracer.spans)
    traced = tracer.run(0, call)
    return plain, traced, [tracer.names[span[1]] for span in tracer.spans[before:]]


@pytest.mark.parametrize("g, d", [
    (EXAMPLE_SIX_POINTS, 2),
    (random_configuration(4, 6, seed=1, glp=True), 2),
    (random_configuration(3, 11, seed=4), 4),
    (random_configuration(3, 7, seed=4), 3),
])
def test_traced_face_report(tracer, g, d):
    plain, traced, names = _both(tracer, lambda: face_report(g, d).to_json())
    assert traced == plain
    assert any(name.startswith("exact_linalg.") for name in names)


@pytest.mark.parametrize("argv", [
    ["certify", "--case", "44", "--samples", "0"],
    ["independence", "--n", "3", "--d", "3", "--random-size", "7", "--seed", "2"],
])
def test_traced_cli(tracer, capsys, argv):
    def call():
        code = cli.main(argv)
        return code, capsys.readouterr().out

    plain, traced, names = _both(tracer, call)
    assert traced == plain
    assert "cli.main" in names
