"""Global guard for operations that materialize very long words.

Iterating a substitution or a graph map grows words geometrically, so the
operations that iterate check the projected size against a cap before each
expansion.  A step that applies one map to one word calls the map's
``_check_growth`` (see ``words._LetterMap``): ``orbit`` and so
``Substitution.iterate``, ``BasisMap.apply`` and so ``BasisMap.power``, and
``f_sharp``.  Three sites check a total over several words themselves:
``FixedPointStream``, ``compose`` of basis maps and
``growth_rate_estimate``.  A single ``Substitution.apply`` or
``StratifiedGraphMap.apply_raw`` is not checked; it grows its input by at
most the longest letter image.  There is one setting: the
``BURNTRACK_MAX_LETTERS`` environment variable, default ten million
letters.  It is read at each growth step, and :func:`check_letters` is the
one place that compares against it.
"""

from __future__ import annotations

import os

__all__ = ["DEFAULT_MAX_LETTERS", "ENV_MAX_LETTERS", "GrowthCapExceeded", "check_letters", "letter_cap"]

DEFAULT_MAX_LETTERS = 10_000_000
ENV_MAX_LETTERS = "BURNTRACK_MAX_LETTERS"


class GrowthCapExceeded(RuntimeError):
    """An expansion would exceed the configured letter cap."""

    def __init__(self, needed: int, cap: int):
        super().__init__(
            f"expansion needs at least {needed} letters but the cap is {cap}; "
            f"set {ENV_MAX_LETTERS} to raise it"
        )
        self.needed = needed
        self.cap = cap


def letter_cap() -> int:
    """The letter cap: the environment variable if set, else the default.

    A bad environment value is an error rather than a silent fallback.
    """
    env = os.environ.get(ENV_MAX_LETTERS)
    if env is None or not env.strip():
        return DEFAULT_MAX_LETTERS
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(f"{ENV_MAX_LETTERS} must be an integer, got {env!r}") from None
    if cap <= 0:
        raise ValueError(f"{ENV_MAX_LETTERS} must be positive, got {env!r}")
    return cap


def check_letters(needed: int) -> None:
    """Raise :class:`GrowthCapExceeded` when ``needed`` letters pass the cap."""
    cap = letter_cap()
    if needed > cap:
        raise GrowthCapExceeded(needed, cap)
