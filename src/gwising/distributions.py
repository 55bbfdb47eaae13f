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
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

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


def _setstate_frozen(self, state: dict) -> None:
    """``__setstate__`` of the frozen dataclasses: the pickled attributes,
    with every array among them read-only again, as it was when pickled."""
    _freeze(*(value for value in state.values() if isinstance(value, np.ndarray)))
    self.__dict__.update(state)


@dataclass(frozen=True, eq=False)
class OffspringPmf:
    """Probability mass function on a finite set of nonnegative integers.

    ``degrees`` is strictly increasing, ``probs`` are nonnegative and sum to
    one within ``NORMALIZATION_TOL``.  Instances are immutable and safe to
    share across workers.
    """

    degrees: np.ndarray
    probs: np.ndarray
    __setstate__ = _setstate_frozen

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
        _check_masses(degrees, probs)
        _freeze(degrees, probs)
        self.__dict__.update(degrees=degrees, probs=probs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_checked(cls, degrees, probs) -> "OffspringPmf":
        """A law from read-only arrays that already satisfy the invariants;
        nothing is checked again."""
        law = object.__new__(cls)
        law.__dict__.update(degrees=degrees, probs=probs)
        return law

    @classmethod
    def from_dict(cls, masses: dict[int, float]) -> "OffspringPmf":
        items = sorted(masses.items())
        return cls(np.array([d for d, _ in items]), np.array([p for _, p in items]))

    @classmethod
    def dirac(cls, d: int) -> "OffspringPmf":
        return cls(np.array([d]), np.array([1.0]))

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
    def max_degree(self) -> int:
        return int(self.degrees[-1])

    def satisfies_supercritical_assumption(self) -> bool:
        """No mass at 0 and not concentrated at 1 (hence mean > 1)."""
        return self.no_zero and self.mass(1) < 1.0

    def mean(self) -> float:
        return self._mean

    @cached_property
    def _mean(self) -> float:
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
        """Generating function G(s) = sum_d mu(d) s^d, for s in [0, 1].

        A float ``s`` takes one ``np.power`` over the support (the square as
        ``s * s``, as numpy's 0-d ``s ** 2`` does) and sums the terms on
        Python floats in support order, bit for bit equal to the array path.
        """
        if isinstance(s, (float, int)):
            s = float(s)
            powers = np.power(s, self.degrees).tolist()
            acc = 0.0
            for (d, p), power in zip(self._terms, powers):
                acc += p * (s * s if d == 2 else power)
            return acc
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape)
        for d, p in zip(self.degrees, self.probs):
            out += p * s**int(d)
        return float(out) if out.ndim == 0 else out

    def log_gf(self, log_s: float) -> float:
        """log G(s) from log s; stays finite when s itself underflows.

        Each d log s is a Python float product, which overflows to -inf
        (s^d = 0) without a warning."""
        if log_s == -math.inf:
            m0 = self.mass(0)
            return math.log(m0) if m0 > 0 else -math.inf
        log_s = float(log_s)
        return logsumexp([lp + d * log_s for d, lp in self._log_terms])

    def one_minus_gf_at_one_minus(self, t) -> float | np.ndarray:
        """F(t) = 1 - G(1 - t), computed stably for small t.

        Uses 1 - (1-t)^d = -expm1(d log1p(-t)) termwise, so F(t) keeps full
        relative accuracy down to t near the underflow threshold.  A float
        ``t`` takes one ``np.expm1`` over the nonzero degrees and sums on
        Python floats in support order, bit for bit equal to the array path;
        at t = 1 every term is its mass.
        """
        if isinstance(t, (float, int)):
            degrees, probs = self._positive_terms
            if t == 1.0:
                terms = probs
            else:
                minus = np.expm1(degrees * np.log1p(-float(t))).tolist()
                terms = [p * -e for p, e in zip(probs, minus)]
            acc = 0.0
            for term in terms:
                acc += term
            return acc
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        with np.errstate(divide="ignore"):
            log1m = np.log1p(-t)
        for d, p in zip(self.degrees, self.probs):
            if d == 0:
                continue
            out += p * (-np.expm1(int(d) * log1m))
        return float(out) if out.ndim == 0 else out

    # the support as Python lists, for the scalar paths above

    @cached_property
    def _terms(self) -> list[tuple[int, float]]:
        """(d, mu(d)) over the support."""
        return list(zip(self.degrees.tolist(), self.probs.tolist()))

    @cached_property
    def _positive_terms(self) -> tuple[np.ndarray, list[float]]:
        """The degrees above 0 as floats, and their masses."""
        keep = self.degrees > 0
        return self.degrees[keep].astype(float), self.probs[keep].tolist()

    @cached_property
    def _log_terms(self) -> list[tuple[int, float]]:
        """(d, log mu(d)) over the degrees with positive mass."""
        nz = self.probs > 0
        return list(zip(self.degrees[nz].tolist(), np.log(self.probs[nz]).tolist()))

    # -- sampling -----------------------------------------------------------

    def sample_many(self, rng: np.random.Generator, size: int,
                    out: np.ndarray | None = None) -> np.ndarray:
        """``size`` i.i.d. draws by inversion: draw i takes the degree whose
        index is the number of cut points cum_0 <= ... <= cum_{m-2} at or
        below its uniform u_i.

        Below 254 cut points that index is counted in one byte, one pass over
        the draws per cut point, which is cheaper on small supports; from 254
        on it is found by the binary search ``searchsorted(cum, u,
        side="right")``.  The two give the same index.  Consumes exactly
        ``size`` uniforms, one per draw, before anything else.  The draws are
        a new int64 array, or are written into ``out``, an integer array of
        ``size`` entries whose type holds the top degree, which is returned.
        """
        u = rng.random(size)
        if out is None:
            out = np.empty(size, dtype=np.int64)
        cuts = self._cuts
        if not cuts:
            out.fill(self.degrees[0])
            return out
        if len(cuts) < 254:
            # a uint8 count keeps the temporaries small
            idx = np.greater_equal(u, cuts[0]).view(np.uint8)
            if len(cuts) > 1:
                above = np.empty(size, dtype=bool)
                for cut in cuts[1:]:
                    idx += np.greater_equal(u, cut, out=above)
            if self.degrees[-1] - self.degrees[0] == len(cuts):
                # consecutive degrees: degrees[idx] is degrees[0] + idx, one add
                return np.add(idx, int(self.degrees[0]), out=out, dtype=out.dtype)
        else:
            idx = np.searchsorted(cuts, u, side="right")
        # every index is in range, and with the degrees in ``out``'s type
        # "clip" writes straight into it, where "raise" copies
        return np.take(self.degrees.astype(out.dtype, copy=False), idx, out=out, mode="clip")

    @cached_property
    def _cuts(self) -> list[float]:
        """The cut points: every cumulative mass but the top one, which no
        draw reads."""
        return np.cumsum(self.probs)[:-1].tolist()

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"entries": [[int(d), float(p)] for d, p in zip(self.degrees, self.probs)]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "OffspringPmf":
        unknown = set(data) - {"entries"}
        if unknown:
            raise ValueError(f"unknown pmf keys {sorted(unknown)}")
        pairs = [(json_number(int, d), json_number(float, p)) for d, p in data["entries"]]
        return cls(np.array([d for d, _ in pairs], dtype=np.int64),
                   np.array([p for _, p in pairs], dtype=np.float64))


def json_number(kind: type, value):
    """A number read from JSON as ``kind``: an int takes a JSON integer, a
    float any JSON number; a bool or a string is a TypeError."""
    allowed = int if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise TypeError(f"expected a JSON {'integer' if kind is int else 'number'}, "
                        f"got {value!r}")
    return kind(value)


def logsumexp(values) -> float:
    """log sum_i exp(values[i]), shifted by the largest value so that no exp
    overflows; -inf for an empty input or when every value is -inf."""
    top = np.max(values, initial=-math.inf)
    if top == -math.inf:
        return -math.inf
    return float(top + math.log(np.exp(np.subtract(values, top)).sum()))


def _check_masses(degrees: np.ndarray, probs: np.ndarray) -> None:
    """The invariants of OffspringPmf, for one law (``probs`` 1-d) or for a
    table of laws on common ``degrees`` (one law per row of ``probs``):
    degrees nonnegative and strictly increasing, masses nonnegative, and each
    law's masses summing to one within ``NORMALIZATION_TOL`` (a NaN sum
    fails)."""
    if degrees[0] < 0 or np.any(np.diff(degrees) <= 0):
        raise PmfError("degrees must be nonnegative and strictly increasing")
    if np.any(probs < 0):
        raise PmfError("negative probability mass")
    totals = np.atleast_1d(probs.sum(axis=-1))
    off = ~(np.abs(totals - 1.0) <= NORMALIZATION_TOL)
    if off.any():
        raise PmfError(f"masses sum to {float(totals[off][0])!r}, "
                       f"outside 1 +/- {NORMALIZATION_TOL}")


def _freeze(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(False)  # write=False; the positional form parses 3x faster
    return arrays


def _check_q(q: float) -> None:
    if not (1.0 < q <= 2.0):
        raise ValueError(f"fractional moment order must lie in (1, 2], got {q}")


class LawTable(Sequence):
    """Laws on the degrees 1..m, held as their checked, read-only mass matrix:
    row i of ``masses`` holds law i's mass at degree d in column d - 1.

    Row i becomes an ``OffspringPmf``, on the degrees where it has positive
    mass, only when it is first read; it is kept, so ``table[i] is table[i]``.
    Consumers that read the matrix (means, q-variances, distances) make no
    row at all.  A slice is the list of its rows.
    """

    __setstate__ = _setstate_frozen  # read-only after unpickling too

    def __init__(self, masses: np.ndarray):
        self.degrees, self.masses = _freeze(np.arange(1, masses.shape[1] + 1), masses)
        self._rows = [None] * len(masses)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        law = self._rows[k]
        if law is None:
            row = self.masses[k]
            keep = row > 0
            # a whole row's arrays are views of the table's
            law = (OffspringPmf._from_checked(self.degrees, row) if keep.all() else
                   OffspringPmf._from_checked(*_freeze(self.degrees[keep], row[keep])))
            self._rows[k] = law
        return law

    def q_variances(self, q: float) -> np.ndarray:
        """Each law's ``q_variance(q)``, bit for bit, without making a row.

        E[D^q] and E[D] of every row are one ``np.vecdot`` each over the
        full-width rows, which sums a row as a law's own ``np.dot`` does.  A
        row that holds a zero mass is summed again over its positive degrees
        alone, as its law would be, since the zeros change the summation
        order.  E[D]^q is a Python float power, as in ``q_variance``.
        """
        _check_q(q)
        degrees = self.degrees.astype(float)
        powers = np.power(degrees, q)
        q_moments = np.vecdot(self.masses, powers).tolist()
        means = np.vecdot(self.masses, degrees).tolist()
        positive = self.masses > 0
        for k in np.flatnonzero(~positive.all(axis=1)).tolist():
            keep = positive[k]
            q_moments[k] = float(np.dot(powers[keep], self.masses[k, keep]))
            means[k] = float(np.dot(self.degrees[keep], self.masses[k, keep]))
        return np.array([m - mean ** q for m, mean in zip(q_moments, means)])


def ztb_mixture(pmf: OffspringPmf, p) -> OffspringPmf | LawTable:
    """Zero-truncated binomial with random trial count X ~ ``pmf``.

    This is the offspring law of a surviving vertex whose children are kept
    independently with probability ``p``, conditioned on at least one child
    surviving.  The masses are the explicit double sum over the number l of
    removed children,

        mu*(d) = (1 - G(1-p))^{-1} sum_l mu(d+l) C(d+l, l) (1-p)^l p^d,

    renormalized to sum to one.  ``gwising validate`` checks them against the
    survival-weighted mixture of ``zero_truncated_binomial(D, p)`` over
    D ~ ``pmf`` to ``MIXTURE_CONSISTENCY_TOL``.

    A float ``p`` gives one law; a 1-d array gives a ``LawTable``, one row
    per entry, bit for bit equal to the float calls.  The powers are taken
    per entry on Python floats; numpy builds, normalises and checks the
    (entries x max_degree) mass matrix as one, each row in the order of the
    float call.  The table is that matrix: a row becomes a law, on the
    degrees where it has positive mass, only when it is first read.
    """
    if not pmf.no_zero:
        raise PmfError("mixture requires a trial-count law with no mass at 0")
    ps = np.asarray(p, dtype=float)
    if not np.all((ps > 0.0) & (ps <= 1.0)):
        raise ValueError("survival probability must lie in (0, 1]")

    dmax = pmf.max_degree
    rows = np.atleast_1d(ps)
    entries = rows.tolist()
    # (1 - p)^l for l < dmax and p^d for 1 <= d <= dmax, one row per entry
    keep_pow = _powers([1.0 - s for s in entries], range(dmax))
    surv_pow = _powers(entries, range(1, dmax + 1))
    masses = np.zeros((len(entries), dmax))
    top = int(np.finfo(float).max)
    for big_d, mass in zip(pmf.degrees.tolist(), pmf.probs):
        combs = _binomial_row(big_d)
        coef = np.array([mass * c if c <= top else 0.0 for c in combs])
        term = coef * keep_pow[:, big_d - 1::-1] * surv_pow[:, :big_d]
        wide = [(d, math.log(c)) for d, c in enumerate(combs, 1) if c > top]
        if wide:
            # C(D, d) past the double range (from D = 1,030): the term by logarithms
            d, log_c = np.array(wide).T
            with np.errstate(divide="ignore"):
                log_term = (np.log(mass) + log_c + (big_d - d) * np.log1p(-rows)[:, None]
                            + d * np.log(rows)[:, None])
            term[:, d.astype(np.int64) - 1] = np.exp(log_term)
        masses[:, :big_d] += term
    masses /= pmf.one_minus_gf_at_one_minus(rows)[:, None]  # 1 - G(1-p)
    masses /= masses.sum(axis=1, keepdims=True)
    laws = LawTable(masses)
    _check_masses(laws.degrees, laws.masses)
    return laws[0] if ps.ndim == 0 else laws


def _binomial_row(big_d: int) -> list[int]:
    """C(D, d), d = 1..D = ``big_d``, by C(D, d) = C(D, d-1) (D-d+1) / d, exact
    in integers; ``math.comb`` per entry took 10 s a call at D = 10^4."""
    return list(accumulate(range(1, big_d + 1), lambda c, d: c * (big_d - d + 1) // d,
                           initial=1))[1:]


def _powers(bases: list[float], exponents: range) -> np.ndarray:
    """The matrix of ``base ** exponent``, one row per base, each entry one
    Python float power (C ``pow``; numpy's ``power`` rounds differently)."""
    size = len(bases) * len(exponents)
    flat = map(pow, np.repeat(bases, len(exponents)).tolist(), list(exponents) * len(bases))
    return np.fromiter(flat, float, size).reshape(len(bases), len(exponents))
