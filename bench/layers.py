"""Per-layer metrics of a traced run, from aggregated spans.

Self times and counts are per round of the workload's question list (the
traced rounds' totals over their number), plus whatever the run traced
once before its questions (group_orders' cold build of B(3,3)).  A layer
the workload never reaches reads 0.
"""

from __future__ import annotations

import statistics
import sys

from tracing import QUESTION

CLI_SUBCOMMANDS = (
    "classify", "orbit", "power-index", "pf", "period", "red",
    "audit-yellow", "moves", "burnside-order", "tc", "dump",
)

# metric name -> (span name, key, unit)
FROM_SPANS = {
    "words.runs.self_s": ("words.runs", "self_s", "s"),
    "words.runs.calls": ("words.runs", "calls", "count"),
    "words.runs.letters": ("words.runs", "letters", "count"),
    "words.reduce.self_s": ("words.reduce", "self_s", "s"),
    "words.reduce.cancelled": ("words.reduce", "cancelled", "count"),
    "substitutions.apply.self_s": ("substitutions.apply", "self_s", "s"),
    "substitutions.apply.letters_out": ("substitutions.apply", "letters_out", "count"),
    "automorphisms.apply.self_s": ("automorphisms.apply", "self_s", "s"),
    "automorphisms.apply.letters_out": ("automorphisms.apply", "letters_out", "count"),
    "automorphisms.apply.cancelled": ("automorphisms.apply", "cancelled", "count"),
    "matrices.pf.self_s": ("matrices.pf", "self_s", "s"),
    "matrices.pf.iterations": ("matrices.pf", "iterations", "count"),
    "graphmap.f_sharp.self_s": ("graphmap.f_sharp", "self_s", "s"),
    "graphmap.f_sharp.letters_out": ("graphmap.f_sharp", "letters_out", "count"),
    "graphmap.f_sharp.cancelled": ("graphmap.f_sharp", "cancelled", "count"),
    "graphmap.red_projection.self_s": ("graphmap.red_projection", "self_s", "s"),
    "graphmap.red_projection.calls": ("graphmap.red_projection", "calls", "count"),
    "graphmap.legality.self_s": ("graphmap.legality", "self_s", "s"),
    "graphmap.legality.calls": ("graphmap.legality", "calls", "count"),
    "burnside.todd_coxeter.self_s": ("burnside.todd_coxeter", "self_s", "s"),
    "burnside.todd_coxeter.calls": ("burnside.todd_coxeter", "calls", "count"),
    "burnside.todd_coxeter.incomplete": ("burnside.todd_coxeter", "incomplete", "count"),
    "burnside.cosets_allocated": ("burnside.todd_coxeter", "allocated", "count"),
    "burnside.induced_order.self_s": ("burnside.induced_order", "self_s", "s"),
    "burnside.moves.self_s": ("burnside.moves", "self_s", "s"),
    "burnside.moves.calls": ("burnside.moves", "calls", "count"),
    "burnside.join.self_s": ("burnside.join", "self_s", "s"),
    "burnside.join.states": ("burnside.join", "states", "count"),
}

UNITS = {name: unit for name, (_, _, unit) in FROM_SPANS.items()}
UNITS.update({
    "graphmap.legal_ratio": "ratio",
    "burnside.coset_yield": "ratio",
    "cli.startup_ms": "ms",
    **{f"cli.{sub}.wall_ms": "ms" for sub in CLI_SUBCOMMANDS},
    "trace.self_coverage": "ratio",
    "trace.overhead_ratio": "ratio",
})

STARTUP_SAMPLES = 5


def per_layer_metrics(once, per_round, rounds, plain_round_s, traced_round_s, cli_wall_ms, startup_ms):
    def value(span, key):
        return once.get(span, {}).get(key, 0) + per_round.get(span, {}).get(key, 0) / rounds

    out = {name: value(span, key) for name, (span, key, _) in FROM_SPANS.items()}
    legal_calls = value("graphmap.legality", "calls")
    out["graphmap.legal_ratio"] = value("graphmap.legality", "legal") / legal_calls if legal_calls else 0.0
    allocated = value("burnside.todd_coxeter", "allocated")
    out["burnside.coset_yield"] = (
        value("burnside.todd_coxeter", "final") / allocated if allocated else 0.0
    )
    out["cli.startup_ms"] = startup_ms
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.wall_ms"] = cli_wall_ms.get(sub, 0.0)
    layer_self = sum(v["self_s"] for k, v in per_round.items() if k != QUESTION) / rounds
    out["trace.self_coverage"] = layer_self / traced_round_s
    out["trace.overhead_ratio"] = traced_round_s / plain_round_s
    return out, UNITS


def cli_startup_ms(root, env, run_child) -> float:
    """Median wall time of a process that only imports burntrack.cli."""
    walls = []
    for _ in range(STARTUP_SAMPLES):
        code, _, wall, _ = run_child([sys.executable, "-c", "import burntrack.cli"], env, root)
        if code != 0:
            raise RuntimeError("importing burntrack.cli failed")
        walls.append(wall * 1e3)
    return statistics.median(walls)
