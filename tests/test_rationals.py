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


def test_as_fraction_reads_strings_in_fraction_syntax():
    # Every short string over these characters gets Fraction's own answer.
    import pytest

    from pvmk.errors import InputParseError
    from pvmk.rationals import as_fraction

    chars = "0123456789/.eE-+ _x\t"
    rng = SplitMix64(4300)
    accepted = 0
    for _ in range(4000):
        text = "".join(chars[rng.randint(0, len(chars) - 1)] for _ in range(rng.randint(1, 7)))
        try:
            want = F(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(InputParseError):
                as_fraction(text)
            continue
        accepted += 1
        assert as_fraction(text) == want
    assert accepted > 400


def test_as_fraction_has_no_digit_limit_and_echoes_a_short_input():
    import pytest

    from pvmk.errors import InputParseError
    from pvmk.rationals import ECHO_CHARS, as_fraction

    zeros = "0" * 5000
    assert as_fraction("1/1" + zeros) == F(1, 10**5000)
    assert as_fraction("-3" + zeros + "/7") == F(-3 * 10**5000, 7)
    assert as_fraction("0." + zeros + "5") == F(5, 10**5001)
    assert as_fraction(" 2" + zeros + "e-5000 ") == 2
    bad = "1/1" + zeros + "x"
    with pytest.raises(InputParseError) as err:
        as_fraction(bad)
    message = str(err.value)
    assert message.startswith("not a rational: '1/1000") and len(message) < ECHO_CHARS + 40
    assert "5006 characters" in message


def test_as_fraction_returns_a_fraction_as_it_is():
    from pvmk.rationals import as_fraction

    q = F(2**80 + 1, 3)
    assert as_fraction(q) is q
    assert as_fraction(7) == 7 and type(as_fraction(7)) is F
