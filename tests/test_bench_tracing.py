"""Every function the benchmark's tracer patches still exists under its name."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_tracing().TRACED


@pytest.mark.parametrize(
    "modname,owner,attr,is_gen",
    [(m, o, a, g) for m, o, a, _, _, g in TRACED],
    ids=[f"{m}.{o + '.' if o else ''}{a}" for m, o, a, _, _, _ in TRACED],
)
def test_traced_name_exists(modname, owner, attr, is_gen):
    module = importlib.import_module(modname)
    if owner:
        assert owner in vars(module), f"{modname} has no class {owner}"
        namespace = vars(vars(module)[owner])
    else:
        namespace = vars(module)
    assert attr in namespace, f"{modname}.{owner or ''} has no {attr}"
    fn = namespace[attr]
    assert inspect.isfunction(fn)
    # the tracer wraps generator functions per resumption, others per call
    assert inspect.isgeneratorfunction(fn) == is_gen
