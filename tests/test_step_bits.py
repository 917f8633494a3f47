"""Golden bits of one Picard step's arithmetic: the map's images, `lp_norm`
and `dist`, on edge inputs and on seeded points, in float64 and at 30 and
273 digits.

Each value is written with every bit it carries.  A float is its repr,
which keeps the sign of a zero, as math.copysign reads it; a NaN is written
"nan" whatever its sign bit, since IEEE 754 leaves the sign of a NaN that
arithmetic returns unspecified (x86-64 keeps the operand's; RISC-V, for one,
returns a default NaN).  An mpf is its exact signed mantissa, in hex, and
exponent.  The float64 norms are pinned only where no power's rounding
reaches the result: libm's pow may differ between platforms, while the
map's products and sums, and mpmath, which rounds on exact integers, do
not.  A float64 edge input is one line; each seeded set, and each set of
mpf points, enters as the sha256 of its lines.
"""

import hashlib
import math
import random
from pathlib import Path

import mpmath as mp
import pytest

from bestprox import Example1Params, InputError, LpSpace, apply_map, dist, lp_norm, make_example1

#: One float64 edge input a line, and one sha256 per set of points.
STEP_BITS = Path(__file__).parent / "data" / "step_bits.txt"

LAMBDAS = (0.3, 0.5, 0.9, 1 - 2.0 ** -53, 1e-300)
EXPONENTS = (1.1, 1.5, 2.0, 3.0, 5.0, 20.0)
DIGITS = (30, 273)
TINY, NORMAL, HUGE = 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308
EDGE = (0.0, -0.0, math.nan, math.inf, -math.inf, TINY, -TINY, NORMAL, -NORMAL,
        1e-300, -1e-300, 1.0, -1.0, 1.0 + 2.0 ** -52, 1e308, -1e308, HUGE, -HUGE)
#: The edge points: each edge coordinate against its mirror in EDGE, and
#: against itself.
EDGE_POINTS = [*zip(EDGE, reversed(EDGE)), *zip(EDGE, EDGE)]
SEEDED_POINTS = 2000
SEEDED_MPF_POINTS = 60


def _bits(value):
    if isinstance(value, mp.mpf):
        man, exp = value.man_exp
        return f"{int(man):x}p{int(exp)}"
    return "nan" if value != value else repr(value)


def _line(*fields):
    return " ".join(_bits(f) if isinstance(f, (float, mp.mpf)) else str(f) for f in fields)


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def _seeded_floats(rng, count):
    """Points of three kinds: uniform in the sampling boxes' span, near the
    apexes (1 + a few ulps to 1 + 2^-10, either sign), and of any magnitude
    from the subnormals to 1e308, each coordinate with its own sign."""
    points = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            point = (rng.uniform(-1000.0, 1000.0), rng.uniform(-1000.0, 1000.0))
        elif kind == 1:
            point = (rng.choice((1.0, -1.0)) * (1.0 + 2.0 ** -rng.randint(10, 52) * rng.random()),
                     rng.uniform(-1e-3, 1e-3) * 10.0 ** -rng.randint(0, 300))
        else:
            point = tuple(rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-323.0, 308.0)
                          for _ in range(2))
        points.append(point)
    return points


def _seeded_mpfs(rng, count):
    """Points at the working precision whose every mantissa bit is drawn, of
    magnitudes 10^-40 to 10^40, each coordinate with its own sign, every
    third point within 10^-40 to 1 of an apex."""
    bits = mp.mp.prec
    points = []
    for i in range(count):
        coords = []
        for _ in range(2):
            unit = mp.mpf(rng.getrandbits(bits)) / mp.mpf(2) ** bits
            exponent = rng.randint(-40, 40)
            near = 1 + unit * mp.mpf(10) ** -abs(exponent)
            coords.append(rng.choice((1, -1)) * (near if i % 3 == 0 else unit * mp.mpf(10) ** exponent))
        points.append(tuple(coords))
    return points


def _mpf_edge():
    tiny, huge = mp.mpf("1e-400"), mp.mpf("1e400")
    values = (mp.mpf(0), mp.nan, mp.inf, -mp.inf, tiny, -tiny, mp.mpf(1), mp.mpf(-1),
              1 + mp.eps, huge, -huge)
    return [*zip(values, reversed(values)), *zip(values, values)]


def _pow_free(v):
    """True where lp_norm(v) reads no power's rounding: a zero, NaN or
    infinite coordinate, or two finite nonzero magnitudes 2^60 or more apart,
    whose smaller term every exponent here skips."""
    a, b = abs(v[0]), abs(v[1])
    if not (a and b and a - a == 0 and b - b == 0):
        return True
    return max(a, b) / min(a, b) >= 2.0 ** 60


def _map_lines():
    lines = []
    rng = random.Random(2015)
    seeded = _seeded_floats(rng, SEEDED_POINTS)
    for lam in LAMBDAS:
        spec = make_example1(Example1Params(lam, 2.0))
        lines += [_line("map", lam, *v, *apply_map(spec, v)) for v in EDGE_POINTS]
        lines.append(_line("map-seeded", lam, SEEDED_POINTS,
                           _digest([_line(*v, *apply_map(spec, v)) for v in seeded])))
    for dps in DIGITS:
        with mp.workdps(dps):
            seeded = _seeded_mpfs(rng, SEEDED_MPF_POINTS)
            for lam in LAMBDAS:
                spec = make_example1(Example1Params(mp.mpf(lam), mp.mpf(2)))
                lines.append(_line(f"map-dps{dps}", lam, _digest(
                    [_line(*v, *apply_map(spec, v)) for v in [*_mpf_edge(), *seeded]])))
    return lines


def _norm_lines():
    spaces = [LpSpace(p) for p in EXPONENTS]
    lines = [_line("norm", *v, *(lp_norm(s, v) for s in spaces))
             for v in EDGE_POINTS if _pow_free(v)]
    pairs = [(u, v) for u in EDGE_POINTS[::3] for v in EDGE_POINTS[1::3]]
    lines += [_line("dist", *u, *v, *(dist(s, u, v) for s in spaces))
              for u, v in pairs if _pow_free((u[0] - v[0], u[1] - v[1]))]
    rng = random.Random(53)
    for dps in DIGITS:
        with mp.workdps(dps):
            spaces = [LpSpace(mp.mpf(p)) for p in EXPONENTS]
            points = [*_mpf_edge(), *_seeded_mpfs(rng, SEEDED_MPF_POINTS)]
            pairs = list(zip(points[::2], points[1::2]))
            lines.append(_line(f"norm-dist-dps{dps}", _digest(
                [_line(*v, *(lp_norm(s, v) for s in spaces)) for v in points]
                + [_line(*u, *v, *(dist(s, u, v) for s in spaces)) for u, v in pairs])))
    return lines


def _refusal(call, *args):
    with pytest.raises(InputError) as raised:
        call(*args)
    return str(raised.value)


def _refusal_lines():
    space = LpSpace(2.0)
    return [
        "refuse lp_norm 1: " + _refusal(lp_norm, space, (1.0,)),
        "refuse lp_norm 3: " + _refusal(lp_norm, space, (1.0, 2.0, 3.0)),
        "refuse dist 3 2: " + _refusal(dist, space, (1.0, 2.0, 3.0), (1.0, 2.0)),
        "refuse dist 2 1: " + _refusal(dist, space, (1.0, 2.0), (1.0,)),
        "refuse dist 3 3: " + _refusal(dist, space, (1.0, 2.0, 3.0), (4.0, 5.0, 6.0)),
        "refuse apply_map 3: " + _refusal(apply_map, make_example1(Example1Params(0.5, 2.0)),
                                          (1.0, 2.0, 3.0)),
    ]


def _recorded(prefix):
    return [line for line in STEP_BITS.read_text(encoding="ascii").splitlines()
            if line.split(" ", 1)[0].startswith(prefix)]


def test_map_images_keep_their_bits():
    assert _map_lines() == _recorded("map")


def test_norms_and_distances_keep_their_bits():
    assert _norm_lines() == _recorded(("norm", "dist"))


def test_refusals_keep_their_messages():
    assert _refusal_lines() == _recorded("refuse")


if __name__ == "__main__":
    STEP_BITS.write_text("\n".join(
        ["# one Picard step's arithmetic; see tests/test_step_bits.py",
         *_map_lines(), *_norm_lines(), *_refusal_lines()]) + "\n", encoding="ascii")
