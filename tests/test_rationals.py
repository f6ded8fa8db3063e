"""Clearing denominators in Python ints, against Fraction arithmetic."""

from fractions import Fraction

from pvmk.rationals import cleared
from pvmk.rng import SplitMix64

F = Fraction


def _oracle(values):
    # the least L > 0 that makes every L*x whole, grown in Fractions: when
    # L*x is not whole, multiplying L by its denominator is the least step
    scale = 1
    for x in values:
        scale *= (F(x) * scale).denominator
    return scale, [F(x) * scale for x in values]


def _check(values):
    scale, ints = cleared(values)
    want_scale, want = _oracle(values)
    assert scale == want_scale
    assert all(type(x) is int for x in ints)
    assert ints == want
    assert [F(x, scale) for x in ints] == [F(x) for x in values]


def test_cleared_matches_fraction_arithmetic():
    rng = SplitMix64(83)
    for trial in range(300):
        n = rng.randint(0, 9)
        values = []
        for _ in range(n):
            kind = rng.randint(0, 3)
            num = rng.randint(-40, 40)
            if kind == 0:
                values.append(num)  # a plain int
            elif kind == 1:
                values.append(F(num, rng.randint(1, 30)))
            elif kind == 2:  # large numerator, beyond int64
                values.append(F(num * 3**45 + 1, rng.randint(1, 30)))
            else:
                values.append(F(-rng.randint(1, 40), rng.randint(1, 12)))
        _check(values)


def test_cleared_edge_cases():
    assert cleared([]) == (1, [])
    assert cleared([0, 3, -2]) == (1, [0, 3, -2])
    assert cleared([F(-1, 6), F(1, 4)]) == (12, [-2, 3])
    big = F(1, 2**64 + 1)
    scale, ints = cleared([big, F(1, 2**63)])
    assert scale == (2**64 + 1) * 2**63 and ints == [2**63, 2**64 + 1]
