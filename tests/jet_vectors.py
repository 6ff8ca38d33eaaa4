"""Vector operations on lists of Jets, for tests only.

The package passes point jets as tuples of coefficient tuples and runs its
vector algebra on float pairs and triples.  These helpers take the same
steps on whole ``Jet`` objects at any order, so tests can use them as the
full-order and bit-parity reference: dot products sum left to right from
the first product, and the norm applies the package's ``NORM_FLOOR`` test
before ``jet_sqrt``.
"""

import math

from frenetlift.jets import NORM_FLOOR, Jet, ZeroNorm, jet_sqrt


def jets(pjets):
    """A list of Jets from coefficient tuples."""
    return [Jet(cs) for cs in pjets]


def as_tuples(v):
    """Coefficient tuples, as the package passes point jets."""
    return tuple(e.coeffs for e in v)


def value(v):
    return tuple(e.value for e in v)


def d(v):
    return [e.d() for e in v]


def cut(v, order):
    return [e.truncated(order) for e in v]


def dot(a, b):
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc = acc + x * y
    return acc


def norm(v):
    sq = dot(v, v)
    if sq.coeffs[0] < NORM_FLOOR * NORM_FLOOR:
        raise ZeroNorm(f"vector norm {math.sqrt(max(sq.coeffs[0], 0.0)):.3e} below floor")
    return jet_sqrt(sq)


def cross(a, b):
    (a1, a2, a3), (b1, b2, b3) = a, b
    return [a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1]


def scale(v, s):
    return [e * s for e in v]


def sub(a, b):
    return [x - y for x, y in zip(a, b)]
