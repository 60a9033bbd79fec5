"""Monte-Carlo engine for power and error-rate studies, plus closed-form
power for the single-signal two-stage setting.

The generative model: each hypothesis j draws X_ij ~ N(mu_ij, sigma_i^2)
per study, with mu_ij = mu_i when the hypothesis is non-null in study i
and 0 otherwise, and one-sided p-values p_ij = 1 - Phi(X_ij / sigma_i).
Study standard deviations are given directly or through a sample-split
form sigma_i = sigma / sqrt(share_i * N).

Random numbers come from counter-based Philox streams (Salmon et al.,
SC'11): one key per (master seed, study, truth block), with each
repetition reading its block from a counter offset set by its index.
Repetitions run in chunks, as rows of (reps, m) arrays through row-wise
procedure kernels. Each chunk is one task that builds its generators
from (key, counter), so any chunking or thread count gives bit-identical
results.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .data import ID, StudyPairData
from .errors import ParameterError
from .numeric import ndtr, ndtri
from .params import check_count, check_levels
from .procedures import Procedure
from .selection import SelectionRule

_log = logging.getLogger(__name__)

# p-values per study in one chunk of repetitions: 512 KB of float64
_CHUNK_VALUES = 1 << 16


@dataclass(frozen=True)
class SimScenario:
    """Truth configuration, generative model, procedure, and replication
    plan for one Monte-Carlo estimate."""

    m: int
    f00: float
    f01: float
    f10: float
    f11: float
    mu1: float
    mu2: float
    sigma1: float | None = None
    sigma2: float | None = None
    sigma: float | None = None
    zeta: float | None = None
    n_total: float | None = None
    procedure: Procedure = Procedure(q1=0.025)
    reps: int = 1000
    seed: int = 0

    def __post_init__(self):
        check_count("m", self.m, 1)
        check_count("reps", self.reps, 1)
        check_count("seed", self.seed, 0)
        truth_block_sizes(self.m, (self.f00, self.f01, self.f10, self.f11))
        if not (math.isfinite(self.mu1) and math.isfinite(self.mu2)):
            raise ParameterError(f"means must be finite, got {self.mu1}, {self.mu2}")
        direct = sum(v is not None for v in (self.sigma1, self.sigma2))
        split = sum(v is not None for v in (self.sigma, self.zeta, self.n_total))
        if (direct, split) not in ((2, 0), (0, 3)):  # one whole form, no key of the other
            raise ParameterError(
                "specify either sigma1 and sigma2, or the allocation form "
                "sigma, zeta, n_total"
            )
        if split and not (0.0 < self.zeta < 1.0 and self.n_total > 0):
            raise ParameterError(f"need zeta in (0, 1) and N > 0, got {self.zeta}, {self.n_total}")
        if not (0.0 < self.sd1 < math.inf and 0.0 < self.sd2 < math.inf):
            raise ParameterError("standard deviations must be positive and finite")
        self.procedure.kernel(self.m, (self.f00, self.f01))  # refuses what cannot run on rows

    @property
    def sd1(self) -> float:
        if self.sigma1 is not None:
            return self.sigma1
        return self.sigma / math.sqrt(self.zeta * self.n_total)

    @property
    def sd2(self) -> float:
        if self.sigma2 is not None:
            return self.sigma2
        return self.sigma / math.sqrt((1.0 - self.zeta) * self.n_total)


def truth_block_sizes(m: int, fractions) -> tuple[int, int, int, int]:
    """Integer block sizes for (I00, I01, I10, I11) by largest-remainder
    rounding of fractions*m, remainders broken in block order. The
    fractions must lie in [0, 1] and sum to 1."""
    if not all(0.0 <= f <= 1.0 for f in fractions):  # NaN fails too
        raise ParameterError("fractions must lie in [0, 1]")
    if abs(sum(fractions) - 1.0) > 1e-12:
        raise ParameterError(f"fractions must sum to 1, got {sum(fractions)!r}")
    raw = [f * m for f in fractions]
    base = [int(math.floor(x)) for x in raw]
    short = m - sum(base)
    remainders = sorted(
        range(4), key=lambda i: (-(raw[i] - base[i]), i)
    )
    for i in remainders[:short]:
        base[i] += 1
    return tuple(base)


def _plan(scenario: SimScenario):
    """(block sizes, streams, signal positions, signal means) of a run.

    A stream is (study, columns, mean in sd units, Philox key, counter
    steps) of a non-empty truth block, study 0 being the primary. The key
    depends on (seed, study, block) only; repetition r of a block of size
    s reads the keyed stream from counter r * steps, where steps =
    ceil(s / 4): Philox yields four 64-bit values per counter step. The
    signal positions index a repetition's flat (2, m) row.
    """
    sizes = truth_block_sizes(
        scenario.m, (scenario.f00, scenario.f01, scenario.f10, scenario.f11)
    )
    ends = np.cumsum(sizes).tolist()
    # block order I00, I01, I10, I11; h1 = 1 on I10, I11; h2 = 1 on I01, I11
    mu1 = np.array([0.0, 0.0, scenario.mu1, scenario.mu1])
    mu2 = np.array([0.0, scenario.mu2, 0.0, scenario.mu2])
    shifts = np.zeros((2, scenario.m))
    streams = []
    for study, (mus, sd) in enumerate(((mu1, scenario.sd1), (mu2, scenario.sd2))):
        for block, size in enumerate(sizes):
            if size:
                entropy = (scenario.seed, study + 1, block)
                key = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
                cols = slice(ends[block] - size, ends[block])
                shifts[study, cols] = shift = float(mus[block] / sd)
                streams.append((study, cols, shift, key, -(-size // 4)))
    signal = np.flatnonzero(shifts)
    return sizes, streams, signal, shifts.ravel()[signal]


def _pvalues(scenario: SimScenario, plan, start: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, m) primary and follow-up p-values of repetitions start..start+n-1.

    A row depends only on its repetition index, never on how repetitions
    are grouped into calls.
    """
    _, streams, signal, shifts = plan
    p = np.empty((n, 2, scenario.m))
    for study, cols, shift, key, steps in streams:
        gen = np.random.Generator(np.random.Philox(key=key, counter=start * steps))
        draws = gen.random((n, 4 * steps))[:, : cols.stop - cols.start]
        if shift == 0.0:
            # 1 - u is exactly the model's uniform null p-value
            np.subtract(1.0, draws, out=p[:, study, cols])
        else:
            p[:, study, cols] = draws
    # the normal kernels cost ~0.1 ms a call: the signal entries of both
    # studies go through one ndtri and one ndtr call, by flat position
    rows = p.reshape(n, 2 * scenario.m)
    rows[:, signal] = ndtr(-shifts - ndtri(rows[:, signal]))
    return p[:, 0], p[:, 1]


@lru_cache(maxsize=4)
def _rep_ids(m: int) -> np.ndarray:
    """Ids h1..hm, zero-padded to one width, as a read-only id column."""
    digits = np.strings.zfill(np.arange(1, m + 1).astype(ID), len(str(m)))
    ids = np.strings.add(np.array("h", ID), digits)
    ids.flags.writeable = False
    return ids


def generate_rep(scenario: SimScenario, rep_index: int) -> tuple[StudyPairData, np.ndarray]:
    """One simulated dataset, a pure function of (seed, rep_index): the
    p-values :func:`run_scenario` draws for repetition ``rep_index``, and
    the truth as a read-only uint8 array of codes indexing
    :data:`~replicability.data.TRUTH_LABELS`.

    Truth states are laid out in contiguous blocks (I00, I01, I10, I11);
    the p-values are exchangeable within blocks, so the layout carries no
    information.
    """
    check_count("rep_index", rep_index, 0)
    plan = sizes, streams, *_ = _plan(scenario)
    # repetition r reads Philox blocks r*steps+1 .. (r+1)*steps; block 2**256 wraps to 0
    steps = max(steps for *_, steps in streams)
    if rep_index >= (limit := (2**256 - 1) // steps):
        raise ParameterError(f"rep_index must be below {limit}, got {rep_index!r}")
    p1, p2 = _pvalues(scenario, plan, int(rep_index), 1)
    codes = np.repeat(np.arange(4, dtype=np.uint8), sizes)
    codes.flags.writeable = False
    return StudyPairData(_rep_ids(scenario.m), p1[0], p2[0]), codes


@dataclass(frozen=True)
class SimEstimate:
    """Averaged false discovery proportion, power, and rejection counts.

    Standard errors are sample-sd/sqrt(reps), absent for a single
    repetition. Power is absent when the scenario has no replicable
    signal (f11 = 0). The optional trace retains the per-repetition
    series in repetition order.
    """

    avg_fdp: float
    fdp_se: float | None
    avg_power: float | None
    power_se: float | None
    avg_rejections: float
    reps: int
    trace: tuple[tuple[float, ...], ...] | None = None


def _mean_se(values: np.ndarray) -> tuple[float, float | None]:
    mean = float(values.mean())
    if values.size < 2:
        return mean, None
    return mean, float(values.std(ddof=1) / math.sqrt(values.size))


def run_scenario(
    scenario: SimScenario, workers: int = 1, retain_trace: bool = False
) -> SimEstimate:
    """Estimate FDP, power, and rejection counts over the repetitions.

    Repetitions run in chunks of about 64k p-values per study, each chunk
    one task on ``workers`` threads; a repetition's rows depend only on its
    index, and aggregation is in index order, so the result is identical
    for any ``workers``, an integer of at least 1. Logs one INFO line with
    the throughput.
    """
    check_count("workers", workers, 1)
    start_time = time.perf_counter()
    m, reps = scenario.m, scenario.reps
    kernel = scenario.procedure.kernel(m, (scenario.f00, scenario.f01))
    plan = _plan(scenario)
    n11 = plan[0][3]  # I11 is the last block, so columns m - n11 on are replicable
    chunk = max(1, _CHUNK_VALUES // m)
    rejections, false = np.empty((2, reps))  # per repetition: all, and those outside I11

    def run_chunk(start: int) -> None:
        rows = slice(start, min(start + chunk, reps))
        mask = kernel(*_pvalues(scenario, plan, start, rows.stop - start))
        rejections[rows] = np.count_nonzero(mask, axis=1)
        false[rows] = np.count_nonzero(mask[:, : m - n11], axis=1)

    starts = range(0, reps, chunk)
    with ThreadPoolExecutor(max_workers=min(workers, len(starts))) as pool:
        list(pool.map(run_chunk, starts))

    fdp = false / np.maximum(rejections, 1)
    power = (rejections - false) / n11 if n11 else np.full(reps, math.nan)
    avg_fdp, fdp_se = _mean_se(fdp)
    avg_power, power_se = _mean_se(power) if n11 else (None, None)
    avg_rejections = float(rejections.mean())
    trace = (tuple(fdp), tuple(power), tuple(rejections)) if retain_trace else None
    seconds = time.perf_counter() - start_time
    _log.info(
        "run_scenario: m=%d reps=%d workers=%d seconds=%.3f reps/s=%.0f",
        m, reps, workers, seconds, reps / seconds,
    )
    return SimEstimate(
        avg_fdp=avg_fdp,
        fdp_se=fdp_se,
        avg_power=avg_power,
        power_se=power_se,
        avg_rejections=avg_rejections,
        reps=reps,
        trace=trace,
    )


_SWEEP_AXES = ("mu", "c", "w1", "zeta", "k_selected")


def _scenario_at(scenario: SimScenario, axis: str, value: float) -> SimScenario:
    if axis == "mu":
        return replace(scenario, mu1=value, mu2=value)
    if axis == "c":
        proc = replace(scenario.procedure, q1=value * scenario.procedure.q)
        return replace(scenario, procedure=proc)
    if axis == "w1":
        proc = replace(scenario.procedure, w1=value)
        return replace(scenario, procedure=proc)
    if axis == "zeta":
        return replace(scenario, zeta=value)
    if axis == "k_selected":
        k = int(value) if float(value).is_integer() else value  # SelectionRule refuses the rest
        proc = replace(scenario.procedure, selection=SelectionRule("top_k", k=k))
        return replace(scenario, procedure=proc)
    raise ParameterError(f"unknown sweep axis {axis!r}; expected one of {_SWEEP_AXES}")


def sweep(
    scenario: SimScenario, axis: str, grid, workers: int = 1
) -> list[tuple[float, SimEstimate]]:
    """One :func:`run_scenario` per grid point along ``axis``.

    Every point is checked before any runs, and reuses the scenario's master
    seed (common random numbers), which keeps curves smooth in the grid
    direction.
    """
    grid = list(grid)
    if not grid:
        raise ParameterError("sweep grid must be non-empty")
    points = [(float(v), _scenario_at(scenario, axis, float(v))) for v in grid]
    return [(v, run_scenario(point, workers=workers)) for v, point in points]


def _check_power_inputs(mu11: float, mu21: float, m) -> None:
    """Refuses an m that is not an integer of at least 1, and an infinite or NaN effect."""
    check_count("m", m, 1)
    if not (math.isfinite(mu11) and math.isfinite(mu21)):
        raise ParameterError(f"effects must be finite, got {mu11}, {mu21}")


def analytic_power_bonf_max(mu11: float, mu21: float, m: int, alpha: float) -> float:
    """Probability that the one non-null hypothesis (effects mu11, mu21,
    unit variances) is rejected when the conservative max-p-value test is
    Bonferroni-corrected across m hypotheses at level alpha."""
    _check_power_inputs(mu11, mu21, m)
    check_levels(None, alpha)
    z = ndtri(alpha / m)
    return float(ndtr(z + mu11) * ndtr(z + mu21))


def analytic_power_two_stage(
    mu11: float, mu21: float, m: int, alpha1: float, alpha: float
) -> float:
    """Probability that the one non-null hypothesis is rejected by the
    two-stage FWER procedure with Bonferroni stages at (alpha1, alpha).

    Conditions on the number of hypotheses selected alongside the signal,
    which is binomial; the series over the selection count is evaluated
    in log space and truncated where the binomial mass is negligible.
    """
    _check_power_inputs(mu11, mu21, m)
    check_levels(alpha1, alpha)
    p_sel = float(ndtr(ndtri(alpha1 / m) + mu11))
    p_null = alpha1 / m
    mean = (m - 1) * p_null
    sd = math.sqrt((m - 1) * p_null * (1.0 - p_null))
    # the mean count (m-1)*alpha1/m is below alpha1 < 1, so a cap below m is
    # at least 61 and the mass it leaves out is below 1/60! ~ 1e-82
    ks = np.arange(1, min(m, int(math.ceil(mean + 1 + 20.0 * sd + 60.0))) + 1)
    lgamma = np.vectorize(math.lgamma, otypes=[float])
    log_pmf = (
        math.lgamma(m)
        - lgamma(ks)
        - lgamma(m - ks + 1)
        + (ks - 1) * math.log(p_null)
        + (m - ks) * math.log1p(-p_null)
    )
    stage2 = ndtr(ndtri((alpha - alpha1) / ks) + mu21)
    return p_sel * float(np.sum(np.exp(log_pmf) * stage2))
