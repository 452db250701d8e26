"""Global guard for operations that materialize very long words.

Iterating a substitution or a graph map grows words geometrically, so the
operations that iterate check the projected size against a cap before each
expansion: ``Substitution.iterate``, ``orbit``, ``FixedPointStream``,
``f_sharp``, ``BasisMap.apply``, ``BasisMap.power``, ``compose`` of basis
maps and ``growth_rate_estimate``.  A single ``Substitution.apply`` or
``StratifiedGraphMap.apply_raw`` is not checked; it grows its input by at
most the longest letter image.  The default cap is ten million letters; it
can be raised or lowered per call (``max_letters=``) or process-wide through
the ``BURNTRACK_MAX_LETTERS`` environment variable.
"""

from __future__ import annotations

import os

__all__ = ["DEFAULT_MAX_LETTERS", "ENV_MAX_LETTERS", "GrowthCapExceeded", "letter_cap"]

DEFAULT_MAX_LETTERS = 10_000_000
ENV_MAX_LETTERS = "BURNTRACK_MAX_LETTERS"


class GrowthCapExceeded(RuntimeError):
    """An expansion would exceed the configured letter cap."""

    def __init__(self, needed: int, cap: int):
        super().__init__(
            f"expansion needs at least {needed} letters but the cap is {cap}; "
            f"pass max_letters= or set {ENV_MAX_LETTERS} to raise it"
        )
        self.needed = needed
        self.cap = cap


def letter_cap(override: int | None = None) -> int:
    """Resolve the letter cap for one operation.

    ``override`` wins when given, then the environment variable, then the
    default.  A bad environment value is an error rather than a silent
    fallback.
    """
    if override is not None:
        cap = int(override)
        if cap <= 0:
            raise ValueError(f"max_letters must be positive, got {override}")
        return cap
    env = os.environ.get(ENV_MAX_LETTERS)
    if env is not None and env.strip():
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"{ENV_MAX_LETTERS} must be an integer, got {env!r}") from None
        if cap <= 0:
            raise ValueError(f"{ENV_MAX_LETTERS} must be positive, got {env!r}")
        return cap
    return DEFAULT_MAX_LETTERS
