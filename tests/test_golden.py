"""Replay of the CLI golden corpus in ``tests/golden``: stdout, stderr and exit code."""

import json

from burntrack.cli import EXIT_OK, EXIT_UNDECIDED, _UNDECIDED_RESULTS
from tests.golden.generate import CAPS, CORPUS, all_cases, differences, run_case


def test_cli_golden_corpus():
    expected = json.loads(CORPUS.read_text(encoding="utf-8"))
    runs = [(case["argv"], case["max_letters"]) for case in expected]
    assert runs == [(argv, cap) for argv in all_cases() for cap in CAPS], "cases.json does not match the case list of generate.py"
    lines = differences(expected, [run_case(argv, cap) for argv, cap in runs])
    assert not lines, f"{len(lines)} of {len(expected)} cases differ:\n" + "\n".join(lines)


def subcommand(argv):
    """The subcommand of a case: its first argument that is not a global flag."""
    args = iter(argv)
    for arg in args:
        if arg in ("-s", "--session"):
            next(args)
        elif arg != "--json":
            return arg


def test_json_head_and_exit_rule():
    """Every answered ``--json`` run starts with its command and exits 2 exactly when undecided."""
    results = set()
    for case in json.loads(CORPUS.read_text(encoding="utf-8")):
        if "--json" not in case["argv"] or case["exit"] not in (EXIT_OK, EXIT_UNDECIDED):
            continue
        payload = json.loads(case["stdout"])
        assert next(iter(payload)) == "command", case["argv"]
        assert payload["command"] == subcommand(case["argv"]), case["argv"]
        undecided = payload.get("result") in _UNDECIDED_RESULTS
        assert (case["exit"] == EXIT_UNDECIDED) == undecided, case["argv"]
        if undecided:
            results.add(payload["result"])
    assert results == _UNDECIDED_RESULTS
