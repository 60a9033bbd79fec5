"""Procedure options and the one check of a procedure's levels."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ParameterError


class _Choice(str, Enum):
    """An option whose unknown value raises :class:`ParameterError`."""

    @classmethod
    def _missing_(cls, value):
        choices = ", ".join(member.value for member in cls)
        raise ParameterError(f"{value!r} is not a valid {cls.__name__}; expected one of {choices}")


class FwerMethod(_Choice):
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


@dataclass(frozen=True)
class ProcedureParams:
    """Level configuration for a procedure run.

    ``q1``/``q`` hold the per-stage and overall levels (alpha1/alpha in
    FWER mode); ``q1`` is None for a single-level procedure, which runs at
    ``q``. ``w1`` is only used by the symmetric procedure. ``mode`` may be
    given as a :class:`Dependence` or its value and is stored as the
    member; the procedures run on that member. ``t`` is the selection
    threshold required by the thresholded dependence mode.
    Building one is the only check of these parameters: the procedures,
    the numeric solvers, the simulator's scenarios and the CLI all build
    one before running, and it refuses a bad value with
    :class:`ParameterError`.
    """

    q1: float | None
    q: float
    w1: float | None = None
    mode: Dependence = Dependence.INDEPENDENT
    t: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "mode", Dependence(self.mode))
        if self.q1 is None and not 0.0 < self.q < 1.0:
            raise ParameterError(f"level must lie in (0, 1), got {self.q}")
        if self.q1 is not None and not 0.0 < self.q1 < self.q < 1.0:
            raise ParameterError(f"levels need 0 < q1 < q < 1, got q1={self.q1}, q={self.q}")
        if self.w1 is not None and not 0.0 <= self.w1 <= 1.0:
            raise ParameterError(f"w1 must lie in [0, 1], got {self.w1}")
        if self.t is not None and not 0.0 < self.t < 1.0:
            raise ParameterError(f"t must lie in (0, 1), got {self.t}")
        if self.mode is Dependence.ARBITRARY_PRIMARY_ITEM2 and self.t is None:
            raise ParameterError("the thresholded dependence mode requires t")

    @property
    def c(self) -> float:
        return self.q1 / self.q
