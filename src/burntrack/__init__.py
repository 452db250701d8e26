"""Words, substitutions, train track maps, and finite exponent quotients.

The flat namespace re-exports the working vocabulary.  ``compose`` is
the one composition of letter maps in :mod:`burntrack.words`, which
``substitutions`` and ``automorphisms`` re-export under the same name.

Names resolve lazily (PEP 562): ``import burntrack`` loads no submodule,
and ``burntrack.X`` imports the one module that defines X on first use.
Each lookup returns the defining module's current binding and copies
nothing into this namespace, so a function patched in its module reads
patched here, and unpatched again once the patch is undone.
"""

from importlib import import_module as _import_module

# submodule -> the names the flat namespace takes from it
_HOMES = {
    "automorphisms": (
        "AbelianizationMatrix", "BasisMap", "Growth", "GrowthEstimate",
        "abelianization", "certifies_polynomial_growth", "decide_growth", "growth_rank2",
        "growth_rate_estimate", "letter_count_matrix", "polynomial_order_bound",
        "verify_automorphism",
    ),
    "burnside": (
        "CosetTable", "ElementaryMove", "EnumerationIncomplete", "ExceedsBound",
        "FiniteQuotient", "Joined", "MoveParams", "Order", "SearchBudget", "Undecided",
        "apply_elementary_move", "burnside_oracle", "common_descendant_search",
        "find_elementary_moves", "induced_order", "move_log", "todd_coxeter",
    ),
    "graphmap": (
        "AuditReport", "EdgePath", "Graph", "RefinementNeeded", "RTTReport",
        "StratifiedGraphMap", "StratumKind", "StratumReport", "Turn", "TurnTable",
        "YellowPiece", "build_turn_table", "check_rtt", "classify_strata", "f_sharp",
        "growth_classify", "induced_substitution", "path_is_k_legal", "pf_length",
        "red_alphabet", "red_commutation_check", "red_projection", "yellow_loop_audit",
        "yellow_red_split",
    ),
    "limits": ("GrowthCapExceeded", "letter_cap"),
    "matrices": (
        "NonnegIntMatrix", "PFResult", "PowerIterationError", "has_permutation_blocks",
        "int_determinant", "is_irreducible", "is_primitive",
        "is_transitive_permutation", "pf_eigenvalue", "pf_eigenvalue_via_shift",
    ),
    "substitutions": (
        "FixedPointStream", "NonOrientable", "NoPeriodUpTo", "Orientable", "Periodic",
        "Substitution", "certify_aperiodic_by_eigenvalue", "detect_shift_period",
        "fixed_point_prefix", "orbit", "orbit_power_index", "orientability",
    ),
    "words": (
        "Alphabet", "GroupWord", "InverseAlphabet", "PowerRun", "Word", "compose", "cyclic_reduce",
        "find_power_runs", "flip", "max_power_index", "primitive_root", "reduce",
    ),
}
_HOME = {name: f"{__name__}.{module}" for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOMES:
        return _import_module(f"{__name__}.{name}")
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(_import_module(home), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *_HOME})
