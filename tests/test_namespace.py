"""The package namespace resolves its names lazily, and stores none of them."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import burntrack

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SESSION = os.path.join(ROOT, "demos", "session.bt")
RELATORS = os.path.join(ROOT, "tests", "golden", "inputs", "s3.rel")
SUBMODULES = ("automorphisms", "burnside", "graphmap", "limits", "matrices", "substitutions", "words")


def loaded_after(code: str) -> list[str]:
    """burntrack submodules, dataclasses, inspect, json and fractions loaded after ``code``, in a fresh process.

    The probe prints the list last, so ``code`` may print before it.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    probe = (
        f"import sys\n{code}\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith('burntrack.') or m in ('dataclasses', 'inspect', 'json', 'fractions')))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout.splitlines()[-1])


def loaded_after_main(argv: list[str]) -> list[str]:
    """What ``loaded_after`` reports for one ``burntrack.cli.main(argv)`` that exits 0."""
    return loaded_after(f"from burntrack.cli import main\nassert main({argv!r}) == 0")


def test_import_loads_no_submodule():
    assert loaded_after("import burntrack") == []


def test_a_name_loads_only_its_module_and_what_that_imports():
    loaded = loaded_after("import burntrack; burntrack.induced_order")
    assert "burntrack.burnside" in loaded
    for name in ("graphmap", "substitutions", "cli"):
        assert f"burntrack.{name}" not in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded
    # burnside imports BasisMap only for the annotation of induced_order
    loaded = loaded_after("import burntrack; burntrack.todd_coxeter")
    assert "burntrack.automorphisms" not in loaded and "burntrack.matrices" not in loaded


def test_the_cli_loads_only_what_every_subcommand_uses():
    assert loaded_after("import burntrack.cli") == [
        "burntrack._records", "burntrack.cli", "burntrack.limits", "burntrack.words",
    ]


@pytest.mark.parametrize(
    "argv",
    [["moves", "abab", "--n", "3"], ["tc", "--rank", "2", "--relators", RELATORS]],
    ids=["moves", "tc"],
)
def test_the_session_free_subcommands_load_no_map_module(argv):
    loaded = loaded_after_main(argv)
    assert "burntrack.burnside" in loaded
    for name in ("graphmap", "substitutions", "automorphisms", "matrices"):
        assert f"burntrack.{name}" not in loaded


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_a_session_question_loads_no_burnside_and_json_only_for_json(flags):
    loaded = loaded_after_main(["-s", SESSION, *flags, "classify", "fib"])
    assert "burntrack.automorphisms" in loaded and "burntrack.burnside" not in loaded
    assert ("json" in loaded) == bool(flags)


def test_star_import_binds_every_name():
    code = (
        "from burntrack import *\n"
        "import burntrack\n"
        "missing = [n for n in burntrack.__all__ if n not in globals()]\n"
        "assert not missing, missing"
    )
    loaded = loaded_after(code)
    assert {f"burntrack.{m}" for m in SUBMODULES} <= set(loaded)
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_each_name_is_its_modules_binding():
    assert burntrack.__all__ == sorted(burntrack.__all__)
    for module, names in burntrack._HOMES.items():
        exported = importlib.import_module(f"burntrack.{module}").__all__
        assert set(names) <= set(exported), module
    for name in burntrack.__all__:
        home = importlib.import_module(burntrack._HOME[name])
        assert getattr(burntrack, name) is getattr(home, name), name
        assert name in dir(burntrack)


def test_compose_is_one_function():
    from burntrack import automorphisms, substitutions, words

    assert burntrack.compose is substitutions.compose is automorphisms.compose is words.compose


def test_submodules_resolve_and_unknown_names_raise():
    for name in SUBMODULES:
        assert getattr(burntrack, name) is importlib.import_module(f"burntrack.{name}")
        assert name in dir(burntrack)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        burntrack.no_such_name


def test_a_patch_in_the_module_is_seen_and_not_kept(monkeypatch):
    from burntrack import burnside

    original = burnside.induced_order
    assert burntrack.induced_order is original

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(burnside, "induced_order", wrapper)
    assert burntrack.induced_order is wrapper
    monkeypatch.undo()
    assert burntrack.induced_order is original
    assert "induced_order" not in vars(burntrack)
