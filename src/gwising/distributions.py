"""Finite-support offspring distributions.

Everything downstream (tree samplers, survival-probability iterations, the
pruned-tree offspring law) is driven by a single immutable pmf type with a
finite support on the nonnegative integers.  Keeping supports finite makes
every formula in the package an exact finite sum: generating functions,
fractional moments, and the zero-truncated binomial transform are all
evaluated without truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NORMALIZATION_TOL = 1e-12
MIXTURE_CONSISTENCY_TOL = 1e-12


class PmfError(ValueError):
    """Raised when a pmf violates its construction invariants."""


class ConsistencyError(RuntimeError):
    """Two independent evaluations of the same quantity disagree.

    Signals an implementation fault, never a statistical fluctuation; it is
    raised instead of silently renormalizing the discrepancy away.
    """


@dataclass(frozen=True, eq=False)
class OffspringPmf:
    """Probability mass function on a finite set of nonnegative integers.

    ``degrees`` is strictly increasing, ``probs`` are nonnegative and sum to
    one within ``NORMALIZATION_TOL``.  Instances are immutable and safe to
    share across workers.
    """

    degrees: np.ndarray
    probs: np.ndarray
    _cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __eq__(self, other) -> bool:
        return (isinstance(other, OffspringPmf)
                and np.array_equal(self.degrees, other.degrees)
                and np.array_equal(self.probs, other.probs))

    def __hash__(self):
        return hash((self.degrees.tobytes(), self.probs.tobytes()))

    def __post_init__(self):
        degrees = np.asarray(self.degrees, dtype=np.int64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if degrees.ndim != 1 or probs.shape != degrees.shape or degrees.size == 0:
            raise PmfError("degrees and probs must be matching non-empty 1-d arrays")
        if degrees[0] < 0 or np.any(np.diff(degrees) <= 0):
            raise PmfError("degrees must be nonnegative and strictly increasing")
        if np.any(probs < 0):
            raise PmfError("negative probability mass")
        total = float(probs.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise PmfError(f"masses sum to {total!r}, outside 1 +/- {NORMALIZATION_TOL}")
        degrees.setflags(write=False)
        probs.setflags(write=False)
        cum = np.cumsum(probs)
        cum[-1] = 1.0  # guard searchsorted against rounding at the top end
        cum.setflags(write=False)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_cum", cum)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_dict(cls, masses: dict[int, float]) -> "OffspringPmf":
        items = sorted(masses.items())
        return cls(np.array([d for d, _ in items]), np.array([p for _, p in items]))

    @classmethod
    def dirac(cls, d: int) -> "OffspringPmf":
        return cls(np.array([d]), np.array([1.0]))

    @classmethod
    def truncated(cls, mass_fn, cutoff: int) -> tuple["OffspringPmf", float]:
        """Truncate a parametric family at ``cutoff`` and renormalize.

        ``mass_fn(d)`` gives the untruncated mass at degree ``d``.  Returns the
        renormalized finite pmf together with the discarded tail mass, which
        the caller is expected to report.
        """
        degrees = np.arange(cutoff + 1)
        masses = np.array([float(mass_fn(int(d))) for d in degrees])
        kept = float(masses.sum())
        if kept <= 0:
            raise PmfError("no mass below the cutoff")
        nz = masses > 0
        return cls(degrees[nz], masses[nz] / kept), 1.0 - kept

    # -- queries ------------------------------------------------------------

    def mass(self, d: int) -> float:
        idx = np.searchsorted(self.degrees, d)
        if idx < len(self.degrees) and self.degrees[idx] == d:
            return float(self.probs[idx])
        return 0.0

    @property
    def no_zero(self) -> bool:
        return self.mass(0) == 0.0

    @property
    def min_degree(self) -> int:
        """Smallest degree carrying positive mass."""
        nz = self.probs > 0
        return int(self.degrees[nz][0])

    @property
    def max_degree(self) -> int:
        return int(self.degrees[-1])

    def satisfies_supercritical_assumption(self) -> bool:
        """No mass at 0 and not concentrated at 1 (hence mean > 1)."""
        return self.no_zero and self.mass(1) < 1.0

    def mean(self) -> float:
        return float(np.dot(self.degrees, self.probs))

    def q_moment(self, q: float) -> float:
        """E[X^q] for q in (1, 2]."""
        _check_q(q)
        return float(np.dot(np.power(self.degrees.astype(float), q), self.probs))

    def q_variance(self, q: float) -> float:
        """E[X^q] - E[X]^q; nonnegative for q in (1, 2] by the power-mean inequality."""
        _check_q(q)
        return self.q_moment(q) - self.mean() ** q

    def gf(self, s) -> float | np.ndarray:
        """Generating function G(s) = sum_d mu(d) s^d, for s in [0, 1]."""
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape)
        for d, p in zip(self.degrees, self.probs):
            out += p * s**int(d)
        return float(out) if out.ndim == 0 else out

    def log_gf(self, log_s: float) -> float:
        """log G(s) from log s; stays finite when s itself underflows."""
        if log_s == -math.inf:
            m0 = self.mass(0)
            return math.log(m0) if m0 > 0 else -math.inf
        nz = self.probs > 0
        return logsumexp(np.log(self.probs[nz]) + self.degrees[nz] * log_s)

    def one_minus_gf_at_one_minus(self, t) -> float | np.ndarray:
        """F(t) = 1 - G(1 - t), computed stably for small t.

        Uses 1 - (1-t)^d = -expm1(d log1p(-t)) termwise, so F(t) keeps full
        relative accuracy down to t near the underflow threshold.
        """
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        with np.errstate(divide="ignore"):
            log1m = np.log1p(-t)
        for d, p in zip(self.degrees, self.probs):
            if d == 0:
                continue
            out += p * (-np.expm1(int(d) * log1m))
        return float(out) if out.ndim == 0 else out

    # -- sampling -----------------------------------------------------------

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` i.i.d. draws by cumulative inversion; consumes exactly
        ``size`` uniforms."""
        u = rng.random(size)
        return self.degrees[np.searchsorted(self._cum, u, side="right")]

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"entries": [[int(d), float(p)] for d, p in zip(self.degrees, self.probs)]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "OffspringPmf":
        entries = data["entries"]
        return cls(np.array([e[0] for e in entries], dtype=np.int64),
                   np.array([e[1] for e in entries], dtype=np.float64))


def logsumexp(values) -> float:
    """log sum_i exp(values[i]), shifted by the largest value so that no exp
    overflows; -inf for an empty input or when every value is -inf."""
    top = np.max(values, initial=-math.inf)
    if top == -math.inf:
        return -math.inf
    return float(top + math.log(np.exp(np.subtract(values, top)).sum()))


def _check_q(q: float) -> None:
    if not (1.0 < q <= 2.0):
        raise ValueError(f"fractional moment order must lie in (1, 2], got {q}")


def zero_truncated_binomial(n: int, p: float) -> OffspringPmf:
    """Binomial(n, p) conditioned on being positive, as a pmf on {1, ..., n}.

    Rejects p = 0: conditioning on a null event leaves the law undefined.
    """
    if n < 1:
        raise ValueError("need at least one trial")
    if not (0.0 < p <= 1.0):
        raise ValueError("success probability must lie in (0, 1]")
    # 1 - (1-p)^n without cancellation
    denom = -math.expm1(n * math.log1p(-p)) if p < 1.0 else 1.0
    masses = [math.comb(n, n - d) * (1.0 - p) ** (n - d) * p**d / denom
              for d in range(1, n + 1)]
    return OffspringPmf(np.arange(1, n + 1), np.array(masses))


def ztb_mixture(pmf: OffspringPmf, p) -> OffspringPmf | tuple[OffspringPmf, ...]:
    """Zero-truncated binomial with random trial count X ~ ``pmf``.

    This is the offspring law of a surviving vertex whose children are kept
    independently with probability ``p``, conditioned on at least one child
    surviving.  The masses are the explicit double sum over the number l of
    removed children,

        mu*(d) = (1 - G(1-p))^{-1} sum_l mu(d+l) C(d+l, l) (1-p)^l p^d,

    renormalized to sum to one.  ``gwising validate`` checks them against the
    survival-weighted mixture of ``zero_truncated_binomial(D, p)`` over
    D ~ ``pmf`` to ``MIXTURE_CONSISTENCY_TOL``.

    A float ``p`` gives one law; a 1-d array gives a tuple of laws, one per
    entry, bit for bit equal to the float calls: powers and normalisers are
    taken per entry on Python floats, and numpy only multiplies and adds.
    """
    if not pmf.no_zero:
        raise PmfError("mixture requires a trial-count law with no mass at 0")
    ps = np.asarray(p, dtype=float)
    if not np.all((ps > 0.0) & (ps <= 1.0)):
        raise ValueError("survival probability must lie in (0, 1]")

    dmax = pmf.max_degree
    d_out = np.arange(1, dmax + 1)
    rows = np.atleast_1d(ps).tolist()
    # (1 - p)^l for l < dmax and p^d for 1 <= d <= dmax, one row per entry
    keep_pow = np.reshape([[(1.0 - s) ** ell for ell in range(dmax)] for s in rows], (-1, dmax))
    surv_pow = np.reshape([[s**d for d in range(1, dmax + 1)] for s in rows], (-1, dmax))
    raw = np.zeros((len(rows), dmax))
    for big_d, mass in zip(pmf.degrees.tolist(), pmf.probs):
        coef = np.array([mass * math.comb(big_d, big_d - d) for d in range(1, big_d + 1)])
        raw[:, :big_d] += coef * keep_pow[:, big_d - 1::-1] * surv_pow[:, :big_d]
    laws = []
    for s, row in zip(rows, raw):
        row = row / float(pmf.one_minus_gf_at_one_minus(s))  # 1 - G(1-p)
        masses = row / row.sum()
        nz = masses > 0
        laws.append(OffspringPmf(d_out[nz], masses[nz]))
    return laws[0] if ps.ndim == 0 else tuple(laws)
