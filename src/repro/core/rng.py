"""Seeded random-number utilities.

Every stochastic component (workload generation, EET synthesis, execution-time
noise, cohort models) draws from a :class:`numpy.random.Generator` created
here, so a scenario seed fully determines the simulation trace. Independent
substreams are derived with ``spawn`` to keep components decoupled: adding a
draw to one component never perturbs another.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

__all__ = [
    "make_rng",
    "spawn",
    "derive_seed",
    "choice_index",
    "weight_cdf",
    "draw_from_cdf",
]


def make_rng(seed: int | None | np.random.Generator = None) -> np.random.Generator:
    """Return a NumPy Generator from a seed, None, or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive *n* statistically independent child generators from *rng*."""
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)]


def derive_seed(seed: int | None, *labels: int | str) -> int | None:
    """Deterministically derive a sub-seed from *seed* and a label path.

    Used where a component needs a plain integer seed (e.g. to persist in a
    report header) rather than a Generator. Returns None if *seed* is None.
    """
    if seed is None:
        return None
    mix = np.random.SeedSequence(
        [seed] + [_label_to_int(label) for label in labels]
    )
    return int(mix.generate_state(1, dtype=np.uint32)[0])


def _label_to_int(label: int | str) -> int:
    if isinstance(label, int):
        return label
    # Stable, platform-independent string hash (Python's hash() is salted).
    acc = 0
    for ch in str(label):
        acc = (acc * 131 + ord(ch)) % (2**31 - 1)
    return acc


def weight_cdf(weights: Sequence[float] | np.ndarray) -> list[float]:
    """The CDF ``Generator.choice(n, p=w / w.sum())`` searches, as a list.

    ``choice`` builds ``cdf = p.cumsum(); cdf /= cdf[-1]`` from the
    normalised probabilities, draws one double with ``random()`` and
    returns ``cdf.searchsorted(u, side="right")``. This performs the same
    NumPy operations on the same values, so :func:`draw_from_cdf` over the
    result draws the identical index stream — while a caller that keeps the
    CDF pays for it once instead of per draw. *weights* must be finite,
    non-negative and not sum to zero (callers validate; this does not).
    """
    w = np.asarray(weights, dtype=float)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def draw_from_cdf(rng: np.random.Generator, cdf: Sequence[float]) -> int:
    """Draw one index from a :func:`weight_cdf` CDF.

    Consumes exactly one ``rng.random()`` double, and ``bisect_right`` on
    the plain-float list is ``searchsorted(side="right")`` on the array, so
    the result equals ``rng.choice(len(cdf), p=...)`` draw for draw.
    """
    return bisect_right(cdf, rng.random())


def choice_index(
    rng: np.random.Generator, weights: Sequence[float]
) -> int:
    """Draw an index proportionally to *weights* (need not be normalised)."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-D sequence")
    if np.any(w < 0) or not np.isfinite(w).all():
        raise ValueError("weights must be finite and non-negative")
    if w.sum() <= 0:
        raise ValueError("weights must not sum to zero")
    return draw_from_cdf(rng, weight_cdf(w))
