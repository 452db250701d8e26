"""The four workloads.  Each module defines ``Workload(seed, root)``.

A workload's constructor is its set-up: it imports burntrack, makes its
inputs from the seed and warms up.  ``questions`` is the fixed list one
round asks; ``ask`` answers one question through burntrack (the timed
part), ``digest`` turns the answer into a small hashable record, and
``check`` compares a record against a computation made apart from the
library, returning None when it holds.
"""

from __future__ import annotations


class Base:
    KNOWN_FAULT = "known fault"
    # With PER_QUESTION, the median and the tail are taken over the distinct
    # questions, each timed by its median over the run's rounds, and the
    # tail is the highest percentile (to 0.1) with ten questions beyond it.
    # Otherwise they are taken over all samples, the tail at TAIL_PERCENTILE.
    PER_QUESTION = True
    TAIL_PERCENTILE = None
    NEEDS_QUOTIENT = False
    CHILD_PROCESSES = False

    tracer = None
    questions: list = []

    def ask(self, q):
        raise NotImplementedError

    def digest(self, q, result):
        raise NotImplementedError

    def check(self, q, digest) -> str | None:
        raise NotImplementedError

    def describe(self, q) -> str:
        return repr(q)[:120]

    def use_quotient(self, quotient) -> None:
        pass

    def child_spans(self) -> list:
        return []

    def cli_wall_ms(self) -> dict[str, float]:
        return {}
