"""The cached-CDF draw is ``Generator.choice(n, p=w / w.sum())``, draw for draw.

``repro.core.rng.weight_cdf`` + ``draw_from_cdf`` (what ``RANDOM_SPLIT`` and
``choice_index`` use) must consume the generator exactly as ``rng.choice``
does and return the same index every time; ``rng.choice`` stays the
reference here so a NumPy change to its algorithm would fail this test.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import choice_index, draw_from_cdf, weight_cdf

DRAWS = 10_000

weight = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-9, max_value=1e6, allow_nan=False),
    st.integers(min_value=1, max_value=5).map(float),
)
weights = st.lists(weight, min_size=1, max_size=64).filter(lambda w: sum(w) > 0)


@given(weights, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_cdf_draw_equals_generator_choice(w, seed):
    arr = np.asarray(w, dtype=float)
    reference = np.random.default_rng(seed)
    expected = [
        int(reference.choice(arr.size, p=arr / arr.sum())) for _ in range(DRAWS)
    ]
    rng = np.random.default_rng(seed)
    cdf = weight_cdf(w)
    assert [draw_from_cdf(rng, cdf) for _ in range(DRAWS)] == expected
    # Both consumed exactly one double per draw: the streams stay aligned.
    assert rng.random() == reference.random()


@given(weights, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_choice_index_equals_generator_choice(w, seed):
    arr = np.asarray(w, dtype=float)
    reference = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    for _ in range(200):
        assert choice_index(rng, w) == int(
            reference.choice(arr.size, p=arr / arr.sum())
        )


def test_zero_weights_are_never_drawn():
    rng = np.random.default_rng(3)
    cdf = weight_cdf([0.0, 2.0, 0.0, 1.0, 0.0])
    drawn = {draw_from_cdf(rng, cdf) for _ in range(DRAWS)}
    assert drawn == {1, 3}


def test_single_weight_always_draws_zero():
    rng = np.random.default_rng(0)
    cdf = weight_cdf([0.25])
    assert {draw_from_cdf(rng, cdf) for _ in range(100)} == {0}


class FixedDraw:
    """A generator stand-in whose ``random()`` returns chosen doubles."""

    def __init__(self, *values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


def test_cdf_is_renormalised_to_end_at_one():
    # Normalised cumulative sums of these land one ulp off 1.0; choice
    # divides by the last entry, so the CDF must end at exactly 1.0.
    for w in ([0.1] * 10, [0.7, 0.2, 0.1], [0.3, 0.3, 0.3, 0.1]):
        arr = np.asarray(w)
        assert (arr / arr.sum()).cumsum()[-1] != 1.0
        assert weight_cdf(w)[-1] == 1.0


def test_boundary_draws_search_to_the_right():
    # A draw equal to a CDF entry goes past it — and past every zero
    # weight sharing that entry — exactly like searchsorted(side="right").
    cdf = weight_cdf([0.0, 1.0, 0.0, 1.0])
    boundaries = [0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)]
    rng = FixedDraw(*boundaries)
    for u in boundaries:
        expected = int(np.searchsorted(np.asarray(cdf), u, side="right"))
        assert draw_from_cdf(rng, cdf) == expected
    assert [int(np.searchsorted(cdf, u, side="right")) for u in boundaries] == [
        1, 3, 1, 3,
    ]


def test_draws_at_every_reference_boundary():
    # choice's own CDF (numpy/random/_generator.pyx: ``cdf = p.cumsum();
    # cdf /= cdf[-1]``) and its one-ulp neighbours: a CDF differing from it
    # anywhere, even by one ulp, sends one of these draws to another index.
    for w in ([0.1] * 10, [0.7, 0.2, 0.1], [3.0, 1e-9, 2.5, 0.0, 7.1]):
        arr = np.asarray(w)
        reference = (arr / arr.sum()).cumsum()
        reference /= reference[-1]
        draws = [
            float(v)
            for c in reference[:-1]
            for v in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))
        ]
        rng = FixedDraw(*draws)
        cdf = weight_cdf(w)
        got = [draw_from_cdf(rng, cdf) for _ in draws]
        assert got == reference.searchsorted(draws, side="right").tolist()
