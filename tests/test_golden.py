"""Replay of the CLI golden corpus in ``tests/golden``: stdout, stderr and exit code."""

import json

from tests.golden.generate import CAPS, CORPUS, all_cases, run_case


def test_cli_golden_corpus():
    expected = json.loads(CORPUS.read_text(encoding="utf-8"))
    runs = [(case["argv"], case["max_letters"]) for case in expected]
    assert runs == [(argv, cap) for argv in all_cases() for cap in CAPS], "cases.json does not match the case list of generate.py"
    diffs = [
        (case, got)
        for case in expected
        if (got := run_case(case["argv"], case["max_letters"])) != case
    ]
    assert not diffs, f"{len(diffs)} of {len(expected)} cases differ; first: {diffs[0]}"
