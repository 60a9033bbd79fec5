"""Procedure options, and the one check each of a procedure's levels and of a count."""

from __future__ import annotations

from enum import Enum
from numbers import Integral

from .errors import ParameterError


class _Choice(str, Enum):
    """An option whose unknown value raises :class:`ParameterError`."""

    @classmethod
    def _missing_(cls, value):
        choices = ", ".join(member.value for member in cls)
        raise ParameterError(f"{value!r} is not a valid {cls.__name__}; expected one of {choices}")


class FwerMethod(_Choice):
    """The FWER correction applied within each stage of ``fwer_two_stage``."""

    BONFERRONI = "bonferroni"
    HOLM = "holm"


class Dependence(_Choice):
    """Dependence assumption for the two studies.

    ``independent``: all p-values jointly independent.
    ``prds_followup``: positive regression dependence within the follow-up
    study. This is a modeling assumption, not a checkable property of the
    data; error control is unchanged, so the procedure behaves exactly as
    under independence and the mode exists for explicit user intent.
    ``arbitrary_primary_item1``: arbitrary dependence within the primary
    study; the primary-stage level is divided by the harmonic sum H_m.
    ``arbitrary_primary_item2``: same guarantee, but exploits that the
    follow-up set only contains hypotheses with p1 <= t; needs ``t``.
    ``arbitrary_both``: arbitrary dependence within both studies; the
    follow-up-stage level is additionally divided by H_R1.
    """

    INDEPENDENT = "independent"
    PRDS_FOLLOWUP = "prds_followup"
    ARBITRARY_PRIMARY_ITEM1 = "arbitrary_primary_item1"
    ARBITRARY_PRIMARY_ITEM2 = "arbitrary_primary_item2"
    ARBITRARY_BOTH = "arbitrary_both"


def check_levels(q1, q, w1=None, mode=Dependence.INDEPENDENT, t=None) -> Dependence:
    """Refuses bad levels with :class:`ParameterError` and returns ``mode``
    (a :class:`Dependence` or its value) as the member. ``q1``/``q`` are the
    per-stage and overall levels (alpha1/alpha in FWER mode), ``q1`` None
    at one level ``q``; ``w1`` is the symmetric weight, ``t`` the selection
    threshold that only the thresholded mode reads."""
    mode = Dependence(mode)
    if q1 is None and not 0.0 < q < 1.0:
        raise ParameterError(f"level must lie in (0, 1), got {q}")
    if q1 is not None and not 0.0 < q1 < q < 1.0:
        raise ParameterError(f"levels need 0 < q1 < q < 1, got q1={q1}, q={q}")
    if w1 is not None and not 0.0 <= w1 <= 1.0:
        raise ParameterError(f"w1 must lie in [0, 1], got {w1}")
    if t is not None and not 0.0 < t < 1.0:
        raise ParameterError(f"t must lie in (0, 1), got {t}")
    if mode is Dependence.ARBITRARY_PRIMARY_ITEM2 and t is None:
        raise ParameterError("the thresholded dependence mode requires t")
    if mode is not Dependence.ARBITRARY_PRIMARY_ITEM2 and t is not None:
        raise ParameterError(f"{mode.value} does not read t; only the thresholded mode does")
    return mode


def check_count(name: str, value, minimum: int) -> None:
    """Refuses with :class:`ParameterError` naming ``name`` a count that is
    a bool, is not integral or is below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        least = "a non-negative integer" if minimum == 0 else f"an integer of at least {minimum}"
        raise ParameterError(f"{name} must be {least}, got {value!r}")
