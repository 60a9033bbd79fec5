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
procedure kernels; each thread keeps one generator per stream and moves
it to a chunk's counter. Any chunking or thread count gives bit-identical
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

from . import kernels, procedures
from .data import StudyPairData, TruthAssignment
from .errors import DataError
from .numeric import ndtr, ndtri, solve_oracle_qprime
from .procedures import Dependence
from .selection import ROW_KINDS, SelectionRule

_log = logging.getLogger(__name__)

# p-values per study in one chunk of repetitions: 512 KB of float64
_CHUNK_VALUES = 1 << 16

__all__ = [
    "SimProcedure",
    "SimScenario",
    "SimEstimate",
    "truth_block_sizes",
    "generate_rep",
    "run_scenario",
    "sweep",
    "analytic_power_bonf_max",
    "analytic_power_two_stage",
]


@dataclass(frozen=True)
class SimProcedure:
    """Which procedure a scenario runs, with its levels. The selection is a
    ``SelectionRule`` of one of the kinds computed from p1 alone; the
    default level-less ``bh`` runs at each direction's primary-stage level
    (for ``fwer``, as p1 <= alpha1/m)."""

    kind: str = "fdr"
    q1: float | None = None
    q: float = 0.05
    w1: float = 1.0
    mode: Dependence = Dependence.INDEPENDENT
    t: float | None = None
    fwer_method: str = "bonferroni"
    primary: int = 1
    selection: SelectionRule = SelectionRule("bh")

    _KINDS = (
        "fdr",
        "fdr_symmetric",
        "fwer",
        "partial_conjunction",
        "naive_bh_bh",
        "fisher_meta",
        "oracle",
    )

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise DataError(f"unknown procedure kind {self.kind!r}")
        if self.kind in ("fdr", "fdr_symmetric", "fwer") and self.q1 is None:
            raise DataError(f"procedure {self.kind!r} needs q1 (or alpha1)")
        if self.q1 is not None and not 0.0 < self.q1 < self.q < 1.0:
            raise DataError(
                f"levels must satisfy 0 < q1 < q < 1, got q1={self.q1}, q={self.q}"
            )
        if not 0.0 < self.q < 1.0:
            raise DataError(f"q must lie in (0, 1), got {self.q}")
        if not 0.0 <= self.w1 <= 1.0:
            raise DataError(f"w1 must lie in [0, 1], got {self.w1}")
        if self.kind == "oracle" and self.w1 not in (0.0, 0.5, 1.0):
            raise DataError(f"oracle w1 must be one of 0, 0.5, 1, got {self.w1}")
        if self.fwer_method not in ("bonferroni", "holm"):
            raise DataError(f"unknown FWER method {self.fwer_method!r}")
        if self.selection.kind not in ROW_KINDS:
            raise DataError(
                f"selection {self.selection.kind!r} does not run in a simulation; "
                f"expected one of {', '.join(ROW_KINDS)}"
            )


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
    procedure: SimProcedure = SimProcedure(q1=0.025)
    reps: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise DataError("m must be positive")
        if self.reps < 1:
            raise DataError("reps must be positive")
        if self.seed < 0:
            raise DataError(f"seed must be a non-negative integer, got {self.seed}")
        fr = (self.f00, self.f01, self.f10, self.f11)
        if any(f < 0 or f > 1 for f in fr):
            raise DataError("fractions must lie in [0, 1]")
        if abs(sum(fr) - 1.0) > 1e-12:
            raise DataError(f"fractions must sum to 1, got {sum(fr)!r}")
        has_direct = self.sigma1 is not None and self.sigma2 is not None
        has_split = (
            self.sigma is not None
            and self.zeta is not None
            and self.n_total is not None
        )
        if has_direct == has_split:
            raise DataError(
                "specify either sigma1 and sigma2, or the allocation form "
                "sigma, zeta, n_total"
            )
        if has_split and not 0.0 < self.zeta < 1.0:
            raise DataError(f"zeta must lie in (0, 1), got {self.zeta}")
        if self.sd1 <= 0 or self.sd2 <= 0:
            raise DataError("standard deviations must be positive")

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
    rounding of fractions*m, remainders broken in block order."""
    raw = [f * m for f in fractions]
    base = [int(math.floor(x)) for x in raw]
    short = m - sum(base)
    remainders = sorted(
        range(4), key=lambda i: (-(raw[i] - base[i]), i)
    )
    for i in remainders[:short]:
        base[i] += 1
    return tuple(base)


def _block_means(scenario: SimScenario) -> tuple[np.ndarray, np.ndarray]:
    # block order I00, I01, I10, I11; h1 = 1 on I10, I11; h2 = 1 on I01, I11
    mu1 = np.array([0.0, 0.0, scenario.mu1, scenario.mu1])
    mu2 = np.array([0.0, scenario.mu2, 0.0, scenario.mu2])
    return mu1, mu2


def _streams(scenario: SimScenario) -> list[tuple[int, slice, float, np.ndarray]]:
    """(study, columns, mean in sd units, Philox key) of every non-empty
    truth block, study 0 being the primary.

    The key depends on (seed, study, block) only; repetition r of a block
    of size s reads the keyed stream from counter r * ceil(s / 4).
    """
    sizes = truth_block_sizes(
        scenario.m, (scenario.f00, scenario.f01, scenario.f10, scenario.f11)
    )
    ends = np.cumsum(sizes).tolist()
    mu1, mu2 = _block_means(scenario)
    out = []
    for study, (mus, sd) in enumerate(((mu1, scenario.sd1), (mu2, scenario.sd2))):
        for block, size in enumerate(sizes):
            if size:
                entropy = (scenario.seed, study + 1, block)
                key = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
                cols = slice(ends[block] - size, ends[block])
                out.append((study, cols, float(mus[block] / sd), key))
    return out


def _generators(streams) -> list[np.random.Generator]:
    """One generator per stream, for one thread's calls to :func:`_pvalues`."""
    return [np.random.Generator(np.random.Philox(key=key)) for *_, key in streams]


def _seek(gen: np.random.Generator, key: np.ndarray, counter: int) -> None:
    """Put a keyed Philox generator where ``Philox(key=key, counter=counter)``
    starts: an empty buffer, so the first draw is block counter + 1."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([(counter >> (64 * i)) & (2**64 - 1) for i in range(4)], np.uint64),
            "key": key,
        },
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _pvalues(
    scenario: SimScenario, streams, start: int, n: int, gens=None
) -> tuple[np.ndarray, np.ndarray]:
    """(n, m) primary and follow-up p-values of repetitions start..start+n-1,
    drawn with ``gens`` (one generator per stream; new ones by default).

    A row depends only on its repetition index, never on how repetitions
    are grouped into calls.
    """
    if gens is None:
        gens = _generators(streams)
    p = np.empty((2, n, scenario.m))
    # the normal kernels cost ~0.1 ms a call: every signal column of both
    # studies is drawn into one buffer and transformed in one pass
    signal = [(study, cols, shift) for study, cols, shift, _ in streams if shift != 0.0]
    widths = [cols.stop - cols.start for _, cols, _ in signal]
    u = np.empty((n, sum(widths)))
    at = 0
    for (study, cols, shift, key), gen in zip(streams, gens):
        size = cols.stop - cols.start
        steps = -(-size // 4)  # Philox yields four 64-bit values per counter step
        _seek(gen, key, start * steps)
        draws = gen.random((n, 4 * steps))[:, :size]
        if shift == 0.0:
            # 1 - u is exactly the model's uniform null p-value
            np.subtract(1.0, draws, out=p[study, :, cols])
        else:
            u[:, at : at + size] = draws
            at += size
    if signal:
        x = ndtr(-np.repeat([shift for *_, shift in signal], widths) - ndtri(u))
        at = 0
        for (study, cols, _), size in zip(signal, widths):
            p[study, :, cols] = x[:, at : at + size]
            at += size
    return p[0], p[1]


def _truth_codes(scenario: SimScenario) -> np.ndarray:
    sizes = truth_block_sizes(
        scenario.m, (scenario.f00, scenario.f01, scenario.f10, scenario.f11)
    )
    return np.repeat(np.arange(4, dtype=np.uint8), sizes)


@lru_cache(maxsize=4)
def _rep_ids(m: int) -> tuple[str, ...]:
    """Ids h1..hm, zero-padded to one width."""
    # 10**w + i is "1" then i padded to w digits: one join and one split
    # build all m strings, with each leading "1" turned into an "h"
    base = 10 ** len(str(m))
    text = "\n".join(map(str, range(base + 1, base + m + 1)))
    return tuple(("h" + text[1:].replace("\n1", "\nh")).split("\n"))


def generate_rep(
    scenario: SimScenario, rep_index: int
) -> tuple[StudyPairData, TruthAssignment]:
    """One simulated dataset, a pure function of (seed, rep_index): the
    p-values :func:`run_scenario` draws for repetition ``rep_index``.

    Truth states are laid out in contiguous blocks (I00, I01, I10, I11);
    the p-values are exchangeable within blocks, so the layout carries no
    information.
    """
    p1, p2 = _pvalues(scenario, _streams(scenario), rep_index, 1)
    data = StudyPairData.from_columns(_rep_ids(scenario.m), p1[0], p2[0])
    return data, TruthAssignment.from_codes(_truth_codes(scenario))


def _build_runner(scenario: SimScenario):
    """The scenario's procedure as mask = f(p1, p2) over (n, m) rows, on
    the row kernels the library procedures run."""
    proc, m, q = scenario.procedure, scenario.m, scenario.procedure.q
    rule, mode, t = proc.selection, proc.mode, proc.t
    if proc.kind == "fdr":
        return lambda p1, p2: procedures._directed_fdr_rows(p1, p2, rule, m, proc.q1, q, mode, t)
    if proc.kind == "fdr_symmetric":
        return lambda p1, p2: procedures._symmetric_rows(
            p1, p2, rule, proc.w1, m, proc.q1, q, mode, t
        )
    if proc.kind == "oracle":
        qp = solve_oracle_qprime(scenario.f00, scenario.f01, q, proc.w1)
        return lambda p1, p2: procedures._symmetric_rows(
            p1, p2, rule, proc.w1, m, qp, 2.0 * qp, mode, t
        )
    if proc.kind == "fwer":
        return lambda p1, p2: procedures._selected_fwer_rows(
            p1, p2, rule, m, proc.q1, q, proc.fwer_method
        )
    if proc.kind == "partial_conjunction":
        return lambda p1, p2: kernels.bh_rows(np.maximum(p1, p2), q, m)
    if proc.kind == "fisher_meta":
        return lambda p1, p2: kernels.bh_rows(procedures.fisher_combined_pvalues(p1, p2), q, m)
    return lambda p1, p2: procedures._naive_rows(p1, p2, q, m, proc.primary)[1]


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

    Repetitions run in chunks of about 64k p-values per study, on
    ``workers`` threads; a repetition's rows depend only on its index, and
    aggregation is in index order, so the result is identical for any
    ``workers``. Logs one INFO line with the throughput.
    """
    start_time = time.perf_counter()
    runner = _build_runner(scenario)
    streams = _streams(scenario)
    codes = _truth_codes(scenario)
    non_replicable = codes != 3
    n11 = int(np.count_nonzero(codes == 3))
    m, reps = scenario.m, scenario.reps
    chunk = max(1, _CHUNK_VALUES // m)
    fdp = np.empty(reps)
    power = np.empty(reps)
    rejections = np.empty(reps)

    starts = range(0, reps, chunk)
    threads = max(1, min(workers, len(starts)))

    def run_chunks(offset: int) -> None:
        # each thread takes every threads-th chunk, with its own generators
        gens = _generators(streams)
        for start in starts[offset::threads]:
            rows = slice(start, min(start + chunk, reps))
            mask = runner(*_pvalues(scenario, streams, start, rows.stop - start, gens))
            r = np.count_nonzero(mask, axis=1)
            v = np.count_nonzero(mask & non_replicable, axis=1)
            fdp[rows] = v / np.maximum(r, 1)
            power[rows] = (r - v) / n11 if n11 else math.nan
            rejections[rows] = r

    if threads == 1:
        run_chunks(0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_chunks, range(threads)))

    avg_fdp, fdp_se = _mean_se(fdp)
    if n11:
        avg_power, power_se = _mean_se(power)
    else:
        avg_power, power_se = None, None
    avg_rejections = float(rejections.mean())
    trace = None
    if retain_trace:
        trace = (tuple(fdp), tuple(power), tuple(rejections))
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
        if scenario.zeta is None:
            raise DataError("zeta sweep needs the sigma/zeta/n_total allocation form")
        return replace(scenario, zeta=value)
    if axis == "k_selected":
        proc = replace(
            scenario.procedure,
            selection=SelectionRule("top_k", k=int(value)),
        )
        return replace(scenario, procedure=proc)
    raise DataError(f"unknown sweep axis {axis!r}; expected one of {_SWEEP_AXES}")


def sweep(
    scenario: SimScenario, axis: str, grid, workers: int = 1
) -> list[tuple[float, SimEstimate]]:
    """One :func:`run_scenario` per grid point along ``axis``.

    Every point reuses the scenario's master seed (common random numbers),
    which keeps curves smooth in the grid direction.
    """
    grid = list(grid)
    if not grid:
        raise DataError("sweep grid must be non-empty")
    return [
        (float(v), run_scenario(_scenario_at(scenario, axis, float(v)), workers=workers))
        for v in grid
    ]


def _upper_z(p):
    return -ndtri(p)


def _right_tail(x):
    return ndtr(-np.asarray(x, dtype=float))


def analytic_power_bonf_max(mu11: float, mu21: float, m: int, alpha: float) -> float:
    """Probability that the one non-null hypothesis (effects mu11, mu21,
    unit variances) is rejected when the conservative max-p-value test is
    Bonferroni-corrected across m hypotheses at level alpha."""
    if m < 1:
        raise ValueError("m must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    z = _upper_z(alpha / m)
    return float(_right_tail(z - mu11) * _right_tail(z - mu21))


def analytic_power_two_stage(
    mu11: float, mu21: float, m: int, alpha1: float, alpha: float
) -> float:
    """Probability that the one non-null hypothesis is rejected by the
    two-stage FWER procedure with Bonferroni stages at (alpha1, alpha).

    Conditions on the number of hypotheses selected alongside the signal,
    which is binomial; the series over the selection count is evaluated
    in log space and truncated once the binomial mass is exhausted.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not 0.0 < alpha1 < alpha < 1.0:
        raise ValueError(
            f"levels must satisfy 0 < alpha1 < alpha < 1, got {alpha1}, {alpha}"
        )
    p_sel = float(_right_tail(_upper_z(alpha1 / m) - mu11))
    p_null = alpha1 / m
    if m == 1:
        return p_sel * float(_right_tail(_upper_z(alpha - alpha1) - mu21))
    mean = (m - 1) * p_null
    sd = math.sqrt((m - 1) * p_null * (1.0 - p_null))
    kcap = min(m, int(math.ceil(mean + 1 + 20.0 * sd + 60.0)))
    lgamma = np.vectorize(math.lgamma, otypes=[float])
    while True:
        ks = np.arange(1, kcap + 1)
        log_pmf = (
            math.lgamma(m)
            - lgamma(ks)
            - lgamma(m - ks + 1)
            + (ks - 1) * math.log(p_null)
            + (m - ks) * math.log1p(-p_null)
        )
        pmf = np.exp(log_pmf)
        if kcap == m or pmf[-1] < 1e-16 * pmf.sum():
            break
        kcap = min(m, kcap * 2)
    stage2 = _right_tail(_upper_z((alpha - alpha1) / ks) - mu21)
    return p_sel * float(np.sum(pmf * stage2))
