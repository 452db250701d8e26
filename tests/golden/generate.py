"""Golden corpus of the ``burntrack`` command line.

``cases.json`` lists, for every case, the arguments, the letter cap
(``BURNTRACK_MAX_LETTERS`` unset, or 30), and the exit code, stdout and
stderr that ``burntrack.cli.main`` gave.  ``tests/test_golden.py`` replays
every case and compares all three.  Cases run with the repository root as
the working directory, and every path in them is relative to it, so the
corpus does not depend on where the checkout is.  ``tc`` progress lines
depend on time; no case allocates enough cosets to print one.

A golden diff is a deliberate change of CLI output.  ``--check`` runs
every case in memory, writes nothing, prints each case that differs from
``cases.json`` (its argv and cap, and which of exit, stdout and stderr
differ, or that it is new or gone) and exits 1 if any does.  Run it
first, then regenerate only for a deliberate change, and name it in
CHANGES.md::

    PYTHONPATH=src python tests/golden/generate.py --check
    PYTHONPATH=src python tests/golden/generate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from burntrack.cli import main, parse_session

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).resolve().parent / "cases.json"
INPUTS = "tests/golden/inputs"
# each session file with the output formats its object cases use; the
# objects of demos/session.bt are a subset of those of bench/session.bt
SESSIONS = (("demos/session.bt", ((),)), ("bench/session.bt", ((), ("--json",))))
CAPS = (None, "30")
ENV = "BURNTRACK_MAX_LETTERS"


def run_case(argv: list[str], cap: str | None) -> dict:
    """One run of ``cli.main`` from the repository root under the given cap."""
    saved_env, saved_cwd = os.environ.get(ENV), os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    try:
        if cap is None:
            os.environ.pop(ENV, None)
        else:
            os.environ[ENV] = cap
        os.chdir(ROOT)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(saved_cwd)
        if saved_env is None:
            os.environ.pop(ENV, None)
        else:
            os.environ[ENV] = saved_env
    return {"argv": list(argv), "max_letters": cap, "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _object_cases(session: str, formats: tuple[tuple[str, ...], ...]) -> list[list[str]]:
    """Every object-taking subcommand on every name of a session file.

    A name of the wrong kind for a subcommand gives its kind-mismatch exit.
    """
    with contextlib.redirect_stderr(io.StringIO()):
        s = parse_session(str(ROOT / session))
    cases = []
    for name, (kind, obj) in s.objects.items():
        if kind == "alphabet":
            seed, letter, rank = "a", "a", 2
        elif kind == "graphmap":
            edges = obj.graph.positive_edges
            seed, letter, rank = edges[-1], edges[0], 2
        else:
            letters = obj.alphabet.positive_letters
            seed, letter, rank = letters[-1], letters[0], len(letters)
        for query in (
            ["classify", name],
            ["orbit", name, seed],
            ["power-index", name, seed, "--depth", "6"],
            ["pf", name],
            ["period", name, letter],
            ["red", name, seed, "--depth", "3"],
            ["audit-yellow", name, seed, "--depth", "2"],
            ["burnside-order", name, "--rank", str(rank), "--exp", "3"],
        ):
            cases += [["-s", session, *fmt, *query] for fmt in formats]
    return cases + [["-s", session, *fmt, "dump"] for fmt in formats]


def _input_cases() -> list[list[str]]:
    """Bad input, bounds and the session-free subcommands."""
    demo = "demos/session.bt"
    cases = [
        # lookups and arguments that fail
        ["-s", demo, "classify", "nosuch"],
        ["-s", demo, "orbit", "fib", "b", "--depth", "0"],
        ["-s", demo, "orbit", "fib", "x"],
        ["-s", demo, "orbit", "psi", "c e"],
        ["-s", demo, "power-index", "fib", "b", "--depth", "-1"],
        ["-s", demo, "power-index", "nosuch", "a"],
        ["-s", demo, "red", "psi", "c", "--depth", "-1"],
        ["-s", demo, "orbit", "psi", ""],
        ["-s", demo, "red", "psi", ""],
        ["-s", demo, "power-index", "psi", ""],
        ["-s", demo, "audit-yellow", "psi", "z"],
        ["-s", demo, "period", "remark3", "z"],
        ["-s", demo, "burnside-order", "dehn", "--rank", "3", "--exp", "3"],
        ["-s", demo, "burnside-order", "dehn", "--rank", "2", "--exp", "5"],
        ["-s", demo, "orbit", "fib", "b", "--depth", "x"],
        ["-s", "tests/golden/nosuch.bt", "classify", "fib"],
        ["classify", "fib"],
        ["dump"],
        ["-s", demo],
        # word syntax, depths, bounds and flags after the subcommand
        ["-s", demo, "orbit", "fib", "abA", "--depth", "3"],
        ["-s", demo, "orbit", "fib", "a b^-1", "--depth", "3"],
        ["-s", demo, "orbit", "fib", "inv(a) b", "--depth", "3", "--json"],
        ["-s", demo, "orbit", "dehn", "b", "--depth", "12"],
        ["-s", demo, "orbit", "psi", "c inv(d)", "--depth", "2"],
        ["-s", demo, "power-index", "fibw", "a", "--depth", "9"],
        ["-s", demo, "red", "psi", "a b", "--depth", "2"],
        ["-s", demo, "audit-yellow", "psi", "d", "--depth", "3"],
        ["-s", demo, "audit-yellow", "cover", "c", "--depth", "3", "--json"],
        ["-s", demo, "period", "fibw", "a", "--bound", "5"],
        ["-s", demo, "burnside-order", "dehn", "--rank", "2", "--exp", "3", "--max-k", "2"],
        ["-s", demo, "--json", "burnside-order", "dehn", "--rank", "2", "--exp", "3", "--max-k", "2"],
        ["-s", demo, "burnside-order", "fib", "--rank", "2", "--exp", "2"],
        ["burnside-order", "fib", "--rank", "2", "--exp", "3", "-s", demo, "--json"],
        # moves
        ["moves", "aaaaaaab", "--n", "5", "--xi", "1"],
        ["moves", "aaaaaaab", "--n", "5", "--xi", "1", "--json"],
        ["moves", "ab", "--n", "3"],
        ["moves", "abababab", "--n", "3", "--xi", "1/2"],
        ["moves", "aAab", "--n", "3"],
        ["moves", "aaaab", "--n", "3", "--join", "bbbab"],
        ["moves", "aaaab", "--n", "3", "--join", "bbbab", "--json"],
        ["moves", "aaab", "--n", "3", "--join", "bbba", "--budget", "5"],
        ["moves", "aaab", "--n", "3", "--join", "bbba", "--budget", "5", "--json"],
        ["moves", "ab", "--n", "3", "--join", "ba", "--max-depth", "0"],
        ["moves", "abc", "--n", "3", "--rank", "3"],
        ["moves", "ab", "--n", "3", "--rank", "0"],
        ["moves", "ab", "--n", "3", "--rank", "27"],
        ["moves", "ab", "--n", "3", "--frob"],
        ["moves", "ab"],
    ]
    # tc on relator files
    for rank, name, extra in (
        ("2", "b23.rel", []),
        ("2", "s3.rel", []),
        ("2", "b23.rel", ["--max-cosets", "10"]),
        ("2", "infinite.rel", ["--max-cosets", "40"]),
        ("2", "s3.rel", ["--max-cosets", "0"]),
        ("1", "unreduced.rel", []),
        ("2", "not_cyclic.rel", []),
        ("2", "bad_letter.rel", []),
        ("2", "nosuch.rel", []),
        ("0", "s3.rel", []),
    ):
        query = ["tc", "--rank", rank, "--relators", f"{INPUTS}/{name}", *extra]
        cases.append(query)
        cases.append(["--json", *query])
    # session files that parse, warn or fail
    for name in sorted(os.listdir(ROOT / INPUTS)):
        if name.endswith(".bt"):
            cases.append(["-s", f"{INPUTS}/{name}", "dump"])
    cases.append(["-s", f"{INPUTS}/comments.bt", "orbit", "rose", "a", "--depth", "3"])
    cases.append(["-s", f"{INPUTS}/comments.bt", "classify", "rose"])
    cases.append(["-s", f"{INPUTS}/singular.bt", "classify", "dbl"])
    cases.append(["-s", f"{INPUTS}/singular.bt", "--json", "classify", "dbl"])
    for name in ("notaut", "conj", "u", "iu", "fibc"):
        cases.append(["-s", f"{INPUTS}/verdicts.bt", "classify", name])
        cases.append(["-s", f"{INPUTS}/verdicts.bt", "--json", "classify", name])
    return cases


def all_cases() -> list[list[str]]:
    cases = [c for session, formats in SESSIONS for c in _object_cases(session, formats)]
    return cases + _input_cases()


def generate() -> list[dict]:
    return [run_case(argv, cap) for argv in all_cases() for cap in CAPS]


def differences(old: list[dict], new: list[dict]) -> list[str]:
    """One line per run whose record differs between ``old`` and ``new``.

    Each line names the run's argv and cap, then which of exit, stdout and
    stderr differ, or that the case is new or gone.
    """
    def by_run(cases):
        return {(tuple(case["argv"]), case["max_letters"]): case for case in cases}

    old_runs, new_runs = by_run(old), by_run(new)
    lines = []
    for run in {**new_runs, **old_runs}:
        was, now = old_runs.get(run), new_runs.get(run)
        if was is None or now is None:
            what = "new case" if was is None else "case gone"
        else:
            what = ", ".join(f for f in ("exit", "stdout", "stderr") if was[f] != now[f])
        if what:
            lines.append(f"{list(run[0])} cap={run[1]}: {what}")
    return lines


def check() -> int:
    """Print each case whose run differs from ``cases.json``; 1 if any does."""
    new = generate()
    lines = differences(json.loads(CORPUS.read_text(encoding="utf-8")), new)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(new)} cases differ")
    return 1 if lines else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else CORPUS
    records = generate()
    out.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} cases written to {out}")
