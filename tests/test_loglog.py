"""The integer ln of the log-log passes: correctly rounded against mpmath, and the retries of Ziv's test."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import log as mp_log, mp, mpf

import recgrow.loglog as loglog
from recgrow.loglog import _ln


def _reduced(m: int, e: int) -> tuple[int, int]:
    """The pair (m, e) for m*2^e with m odd, or (0, 0)."""
    if not m:
        return 0, 0
    zeros = (m & -m).bit_length() - 1
    return m >> zeros, e + zeros


def _oracle(m: int, e: int, prec: int) -> tuple[int, int] | None:
    """ln(m*2^e) by mpmath at 2*prec + 64 bits, rounded here to nearest at prec bits, reduced;
    None when that value lies within 2^-(2*prec) of a midpoint, relative to its size."""
    with mp.workprec(m.bit_length()):
        x = mpf((m, e))  # exact
    with mp.workprec(2 * prec + 64):
        sign, man, exp, _ = mp_log(x)._mpf_
    drop = man.bit_length() - prec
    if drop > 0:
        q, r = divmod(man, 1 << drop)
        half = 1 << (drop - 1)
        if abs(r - half) << (2 * prec) <= man:
            return None
        man, exp = q + (r > half), exp + drop
    return _reduced(-man if sign else man, exp)


@st.composite
def _arguments(draw):
    """(m, e, prec) for x = m*2^e: near 1 on either side, an exact power of two, or any x; |k| <= 10^6."""
    prec = draw(st.integers(2, 4096))
    kind = draw(st.sampled_from(["near one", "power of two", "any"]))
    if kind == "near one":
        h = draw(st.integers(41, 4096))
        return (1 << h) + draw(st.integers(-(2 ** 40), 2 ** 40)), -h, prec
    m = 1 << draw(st.integers(0, 64)) if kind == "power of two" else draw(st.integers(1, 1 << 4096))
    return m, draw(st.integers(-(10 ** 6), 10 ** 6)) - m.bit_length() + 1, prec


@settings(max_examples=400, deadline=None)
@given(_arguments())
@example((1, 1, 53))  # ln 2
@example((3, -1, 2))
@example((1, 0, 80))  # ln 1 = 0
@example(((1 << 4096) - 1, -4096, 4096))  # 1 - 2^-4096: y near 2 and k = -1 cancel
@example((1, -(10 ** 6), 4096))
def test_ln_matches_mpmath_rounded_to_nearest_even(args):
    m, e, prec = args
    expected = _oracle(m, e, prec)
    assume(expected is not None)
    assert _reduced(*_ln(m, e, prec)) == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(8, 4096).flatmap(lambda w: st.tuples(st.just(w), st.integers(1 << w, 2 << w))))
@example((64, 1 << 64))  # ln 1
@example((64, 2 << 64))  # ln 2
def test_fixed_point_ln_lies_within_its_error_bound(args):
    w, y = args
    v, err = loglog._ln_fixed(y, w)
    with mp.workprec(w + 64):
        assert abs(v - mp_log(mpf((y, -w))) * 2 ** w) < err


def test_ln_just_past_a_midpoint():
    # ln(1 - t) = -t - t^2/2 - ... for t = 5*2^-1284: -t is the midpoint of -2*2^-1283 and -3*2^-1283,
    # and -t^2/2 (about 2^-1283 of it, relatively) takes ln away from zero, to -3*2^-1283
    assert _ln((1 << 1284) - 5, -1284, 2) == (-3, -1283)
    assert _ln((1 << 1284) + 5, -1284, 2) == (2, -1283)  # + t^2/2 ... takes it toward zero


class _Stop(Exception):
    pass


def _patch_fixed(monkeypatch, widen, stop_after=None) -> list[int]:
    """Wrap loglog._ln_fixed to record the precision w of each call, and to widen the error bound of
    the calls that widen(call number) picks to more than the whole value; raise _Stop after stop_after calls."""
    real, calls = loglog._ln_fixed, []

    def fixed(y, w):
        if len(calls) == stop_after:
            raise _Stop
        calls.append(w)
        v, err = real(y, w)
        return v, err << w if widen(len(calls)) else err

    monkeypatch.setattr(loglog, "_ln_fixed", fixed)
    return calls


@pytest.mark.parametrize("m, e, prec", [(3, -1, 53), (1, 1, 80), (12345, 7, 200), ((1 << 300) + 1, -300, 64)])
def test_a_widened_first_bound_retries_at_a_higher_precision(monkeypatch, m, e, prec):
    expected = _ln(m, e, prec)
    calls = _patch_fixed(monkeypatch, lambda call: call == 1)
    assert _ln(m, e, prec) == expected
    assert len(set(calls)) >= 2


def test_ln_of_one_calls_no_helper(monkeypatch):
    calls = _patch_fixed(monkeypatch, lambda call: False, stop_after=0)
    assert [_ln(1, 0, 2), _ln(1 << 40, -40, 53), _ln(1 << 9, -9, 4096)] == [(0, 0)] * 3
    assert calls == []


def test_a_bound_that_never_settles_keeps_doubling_the_precision(monkeypatch):
    # no assert ends the loop (python -O would compile it out): it runs on, or the helper raises
    calls = _patch_fixed(monkeypatch, lambda call: True, stop_after=6)
    with pytest.raises(_Stop):
        _ln(3, -1, 53)
    assert calls == [calls[0] << i for i in range(6)]
