"""Jet arithmetic, the float vector helpers and the finite-difference oracle."""

import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from frenetlift.jets import (
    DimensionMismatch,
    DivisionByZeroJet,
    DomainError,
    Jet,
    NonFiniteJet,
    OrderExceeded,
    ZeroNorm,
    _fdot,
    _pcross,
    _pdot,
    _pmul,
    _preject,
    _punit,
    _tcross,
    _tunit,
    fd_oracle,
    gram_defect,
    jet_pow,
)
from frenetlift.jets import jet_cos, jet_exp, jet_log, jet_sin, jet_sqrt, jet_tan
from jet_vectors import cross, dot, norm, scale, sub


def approx_coeffs(jet, expected, tol=1e-12):
    assert len(jet.coeffs) == len(expected)
    for got, want in zip(jet.coeffs, expected):
        assert got == pytest.approx(want, abs=tol)


class TestJetBasics:
    def test_variable_jet(self):
        approx_coeffs(Jet.variable(2.0, 3), [2, 1, 0, 0])
        approx_coeffs(Jet.variable(0.0, 0), [0])
        approx_coeffs(Jet.variable(-1.5, 2), [-1.5, 1, 0])

    def test_variable_negative_order(self):
        with pytest.raises(ValueError):
            Jet.variable(0.0, -1)

    def test_geometric_series(self):
        t = Jet.variable(0.0, 3)
        one = Jet.constant(1.0, 3)
        approx_coeffs(one / (one - t), [1, 1, 1, 1])

    def test_polynomial_square(self):
        t = Jet.variable(3.0, 2)
        approx_coeffs(t * t, [9, 6, 1])

    def test_self_cancellation(self):
        t = Jet.variable(0.7, 4)
        approx_coeffs((t + 1.0) - (t + 1.0), [0, 0, 0, 0, 0], tol=0.0)

    def test_division_by_zero_constant_term(self):
        t = Jet.variable(0.0, 2)
        with pytest.raises(DivisionByZeroJet):
            Jet.constant(1.0, 2) / t

    def test_order_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            Jet.variable(0.0, 2) + Jet.variable(0.0, 3)

    def test_overflow_raises_instead_of_propagating(self):
        big = Jet([1e200, 1e200, 1e200])
        with pytest.raises(NonFiniteJet):
            big * big
        with pytest.raises(NonFiniteJet):
            jet_exp(Jet.constant(1000.0, 2))


def _bits(values):
    return [struct.pack("<d", v) for v in values]


class TestKernelFastPaths:
    JETS = [
        Jet([0.0, -0.0, 1.25, -3.5, 0.0, -0.0]),
        Jet([-0.0, 0.0, -0.0, 0.0, 2.0, -7.25]),
        Jet([1.5, -2.0, 0.5, -0.25, 4.0, 1e-300]),
        Jet([-1e300, 3.0, -0.0]),
    ]

    @pytest.mark.parametrize("c", [2.5, -1.5, 0.0, -0.0])
    def test_scalar_product_matches_convolution(self, c):
        for j in self.JETS:
            const = Jet.constant(c, j.order)
            want = _bits((j * const).coeffs)
            assert _bits((const * j).coeffs) == want
            assert _bits((j * c).coeffs) == want
            assert _bits((c * j).coeffs) == want

    def test_scalar_product_by_int(self):
        j = self.JETS[2]
        assert _bits((j * 3).coeffs) == _bits((j * Jet.constant(3, j.order)).coeffs)

    def test_scalar_product_overflow_raises(self):
        big = Jet([1e300, -0.0, 2.0])
        with pytest.raises(NonFiniteJet, match="multiplication"):
            big * Jet.constant(1e10, 2)
        with pytest.raises(NonFiniteJet, match="multiplication"):
            big * 1e10

    def test_public_constructor_coerces_and_rejects_empty(self):
        j = Jet([1, 2, True])
        assert j.coeffs == (1.0, 2.0, 1.0)
        assert all(type(c) is float for c in j.coeffs)
        with pytest.raises(ValueError, match="order-0"):
            Jet([])

    def test_kernel_results_are_float_tuples(self):
        a, b = Jet([1, 2, 3, 4]), Jet([2, -1, 0, 5])
        results = [
            a + b, a - b, -a, a * b, a * 2, a / b, a.d(), a.truncated(2),
            jet_sin(a), jet_exp(a), jet_log(b), jet_sqrt(b), jet_tan(a), jet_pow(b, 0.5),
        ]
        for r in results:
            assert type(r.coeffs) is tuple
            assert all(type(c) is float for c in r.coeffs)


def _outcome(compute):
    """The bits of a float sequence, or of each sequence in a sequence, or
    the type and message of the JetError raised."""
    try:
        out = compute()
    except ValueError as err:
        return type(err), str(err)
    return [_bits(x) if isinstance(x, (list, tuple)) else _bits([x]) for x in out]


def _split(pairs):
    """A vector of pairs as the value and slope lists the pair steps take."""
    return [p[0] for p in pairs], [p[1] for p in pairs]


def _pair_lists(vector):
    """A vector of order-1 Jets as value and slope lists."""
    return [j.coeffs[0] for j in vector], [j.coeffs[1] for j in vector]


class TestOrderOnePairs:
    """The float-pair steps give the order-1 Jet results, and the dot,
    projection, unit vector and cross product of lists of Jets, by bits,
    signed zeros included, and raise what those raise."""

    PAIRS = [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (1.25, -3.5), (-2.0, 0.5),
             (3.0, 1e-300), (-1e-310, 7.0), (1e154, 2e154), (1e308, 1e308)]

    def test_product(self):
        for a in self.PAIRS:
            for b in self.PAIRS:
                want = _outcome(lambda: (Jet(a) * Jet(b)).coeffs)
                assert _outcome(lambda: _pmul(a, b)) == want
                # A dot of one-component vectors is the product.
                assert _outcome(lambda: _pdot(*_split([a]), *_split([b]))) == want

    def test_difference_of_a_projection(self):
        # One-component vectors: u - e * s for every u, e and s.
        for u in self.PAIRS:
            for e in self.PAIRS:
                for s in self.PAIRS:
                    want = _outcome(lambda: _pair_lists(sub([Jet(u)], scale([Jet(e)], Jet(s)))))
                    assert _outcome(lambda: _preject(*_split([u]), *_split([e]), s)) == want

    def test_reciprocal_of_a_norm(self):
        one = Jet.constant(1.0, 1)
        for u in self.PAIRS:
            want = _outcome(lambda: _pair_lists(scale([Jet(u)], one / norm([Jet(u)]))))
            uv, ud = _split([u])
            assert _outcome(lambda: _punit(uv, ud, _pdot(uv, ud, uv, ud))) == want

    def test_vector_steps(self):
        rng = random.Random(11)
        one = Jet.constant(1.0, 1)
        for _ in range(300):
            dim = rng.choice((3, 6))
            u = [rng.choice(self.PAIRS) for _ in range(dim)]
            w = [rng.choice(self.PAIRS) for _ in range(dim)]
            s = rng.choice(self.PAIRS)
            U, W = [Jet(p) for p in u], [Jet(p) for p in w]
            want = _outcome(lambda: dot(U, W).coeffs)
            assert _outcome(lambda: _pdot(*_split(u), *_split(w))) == want
            want = _outcome(lambda: _pair_lists(sub(U, scale(W, Jet(s)))))
            assert _outcome(lambda: _preject(*_split(u), *_split(w), s)) == want
            want = _outcome(lambda: _pair_lists(scale(U, one / norm(U))))
            uv, ud = _split(u)
            assert _outcome(lambda: _punit(uv, ud, _pdot(uv, ud, uv, ud))) == want
            if dim == 3:
                want = _outcome(lambda: _pair_lists(cross(U, W)))
                assert _outcome(lambda: _pcross(*_split(u), *_split(w))) == want

    @pytest.mark.parametrize("u, w, message", [
        # Products 0 and 1 are finite, their sum is not; product 2 overflows
        # too, but the running sum is tested first.
        ([(1.3e154, 0.0)] * 2 + [(1e200, 0.0)], [(1.3e154, 0.0)] * 2 + [(1e200, 0.0)],
         "addition"),
        ([(1.0, 0.0), (1e200, 0.0), (1.0, 0.0)], [(1.0, 1e308), (1e200, 0.0), (1.0, 0.0)],
         "multiplication"),
    ], ids=["sum-before-product", "product"])
    def test_dot_tests_each_product_then_its_sum(self, u, w, message):
        want = _outcome(lambda: dot([Jet(p) for p in u], [Jet(p) for p in w]).coeffs)
        assert want == (NonFiniteJet, f"{message} produced non-finite coefficients")
        assert _outcome(lambda: _pdot(*_split(u), *_split(w))) == want

    def test_projection_tests_every_product_before_any_difference(self):
        # The difference of component 0 overflows, and so does the product of
        # component 1: the products are tested first.
        u, e, s = [(1e308, 0.0), (0.0, 0.0)], [(-1e308, 0.0), (1e200, 0.0)], (1.0, 1e200)
        U, E = [Jet(p) for p in u], [Jet(p) for p in e]
        want = _outcome(lambda: _pair_lists(sub(U, scale(E, Jet(s)))))
        assert want == (NonFiniteJet, "multiplication produced non-finite coefficients")
        assert _outcome(lambda: _preject(*_split(u), *_split(e), s)) == want

    def test_cross_tests_a_component_before_the_next(self):
        # Component 0 differs by 2e308; component 1 has an overflowing product.
        a = [(1e200, 0.0), (1e154, 0.0), (1e154, 0.0)]
        b = [(1e200, 0.0), (-1e154, 0.0), (1e154, 0.0)]
        want = _outcome(lambda: _pair_lists(cross([Jet(p) for p in a], [Jet(p) for p in b])))
        assert want == (NonFiniteJet, "subtraction produced non-finite coefficients")
        assert _outcome(lambda: _pcross(*_split(a), *_split(b))) == want


class TestOrderTwoTriples:
    """The triple steps give the order-2 Jet norm, unit vector and cross
    product by bits, and raise what those raise."""

    TRIPLES = [(0.0, -0.0, 0.0), (-0.0, 0.0, -0.0), (1.25, -3.5, 0.5), (-2.0, 0.5, 7.0),
               (3.0, 1e-300, -0.0), (-1e-310, 7.0, 2.0), (1e154, 2e154, -1e154),
               (1e308, 0.0, 1e308), (0.5, 1e200, 0.0)]

    def test_unit_and_cross(self):
        rng = random.Random(12)
        one = Jet.constant(1.0, 2)
        for _ in range(400):
            u = [rng.choice(self.TRIPLES) for _ in range(3)]
            w = [rng.choice(self.TRIPLES) for _ in range(3)]
            U, W = [Jet(p) for p in u], [Jet(p) for p in w]

            def jet_unit():
                n = norm(U)
                return n.coeffs, *[e.coeffs for e in scale(U, one / n)]

            assert _outcome(lambda: (_tunit(u)[0], *_tunit(u)[1])) == _outcome(jet_unit)
            want = _outcome(lambda: [e.coeffs for e in cross(U, W)])
            assert _outcome(lambda: _tcross(u, w)) == want


class TestJetFunctions:
    def test_sin_taylor(self):
        approx_coeffs(jet_sin(Jet.variable(0.0, 3)), [0, 1, 0, -1 / 6])

    def test_exp_taylor(self):
        approx_coeffs(jet_exp(Jet.variable(0.0, 4)), [1, 1, 1 / 2, 1 / 6, 1 / 24])

    def test_sqrt_negative_radicand(self):
        with pytest.raises(DomainError):
            jet_sqrt(Jet.variable(-1.0, 2))

    def test_log_requires_positive(self):
        with pytest.raises(DomainError):
            jet_log(Jet.variable(0.0, 2))

    def test_tan_near_pole(self):
        with pytest.raises(DomainError):
            jet_tan(Jet.variable(math.pi / 2, 2))

    @pytest.mark.parametrize("func, name", [(jet_sin, "sin"), (jet_cos, "cos"), (jet_tan, "tan")])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_argument_is_a_domain_error(self, func, name, value):
        with pytest.raises(DomainError, match=f"^{name} undefined at {value!r}$"):
            func(Jet.constant(value, 2))

    def test_pow_integer_negative_base(self):
        approx_coeffs(jet_pow(Jet.variable(-2.0, 2), 3.0), [-8, 12, -6])

    def test_pow_fractional_negative_base(self):
        with pytest.raises(DomainError):
            jet_pow(Jet.variable(-2.0, 2), 0.5)

    def test_pow_zero_exponent(self):
        approx_coeffs(jet_pow(Jet.variable(4.0, 2), 0.0), [1, 0, 0], tol=0.0)


class TestDerivativeExtraction:
    def test_exp_derivatives(self):
        assert jet_exp(Jet.variable(0.0, 4)).derivative(3) == pytest.approx(1.0)

    def test_second_derivative_of_square(self):
        t = Jet.variable(3.0, 2)
        assert (t * t).derivative(2) == pytest.approx(2.0)

    def test_value_extraction(self):
        assert Jet.variable(5.0, 2).derivative(0) == 5.0

    def test_order_exceeded(self):
        with pytest.raises(OrderExceeded):
            Jet.variable(1.0, 2).derivative(3)


def _constant_pairs(values):
    return [(float(v), 0.0) for v in values]


class TestVectorHelpers:
    def test_dot_constants(self):
        a = _split(_constant_pairs((1, 2, 3)))
        b = _split(_constant_pairs((4, 5, 6)))
        assert _pdot(*a, *b)[0] == pytest.approx(32.0)

    def test_cross_right_handed(self):
        e1 = _split(_constant_pairs((1, 0, 0)))
        e2 = _split(_constant_pairs((0, 1, 0)))
        assert _pcross(*e1, *e2)[0] == pytest.approx((0, 0, 1))
        t1, t2 = [(1.0, 0.0, 0.0), (0.0,) * 3, (0.0,) * 3], [(0.0,) * 3, (1.0, 0.0, 0.0), (0.0,) * 3]
        assert [c[0] for c in _tcross(t1, t2)] == pytest.approx((0, 0, 1))

    def test_norm_345(self):
        norm = _tunit([(0.0, 0.0, 0.0), (3.0, 0.0, 0.0), (4.0, 0.0, 0.0)])[0]
        assert norm[0] == pytest.approx(5.0)

    def test_zero_norm(self):
        zv, zd = _split(_constant_pairs((0, 0, 0)))
        with pytest.raises(ZeroNorm):
            _punit(zv, zd, _pdot(zv, zd, zv, zd))
        with pytest.raises(ZeroNorm):
            _tunit([(0.0, 0.0, 0.0)] * 3)


def _full_gram_defect(vectors):
    """The worst entry of the full Gram matrix minus the identity."""
    worst = 0.0
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            worst = max(worst, abs(_fdot(a, b) - (1.0 if i == j else 0.0)))
    return worst


class TestGramDefect:
    ENTRIES = [0.0, -0.0, 1.0, -1.0, 0.6, 0.8, -0.8, 1e-17, 1e200, math.nan, math.inf, -math.inf]

    def test_matches_full_matrix(self):
        rng = random.Random(5)
        for _ in range(3000):
            dim = rng.choice((3, 6))
            frame = [[rng.choice(self.ENTRIES) if rng.random() < 0.3 else rng.uniform(-1.0, 1.0)
                      for _ in range(dim)] for _ in range(3)]
            assert _bits([gram_defect(frame)]) == _bits([_full_gram_defect(frame)])

    @pytest.mark.parametrize("frame", [
        [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)],
        [(-0.0, 1.0, -0.0), (1.0, -0.0, 0.0), (0.0, 0.0, -1.0)],
        [(math.nan, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)],
        [(0.6, 0.8, 0.0), (0.8, -0.6, 0.0), (0.6, 0.8, 0.0)],
        [(2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 2.0)],
    ], ids=["identity", "signed-zeros", "nan", "tie", "equal-diagonal"])
    def test_edge_frames(self, frame):
        assert _bits([gram_defect(frame)]) == _bits([_full_gram_defect(frame)])


class TestFdOracle:
    def test_sin_first_derivative(self):
        got = fd_oracle(math.sin, 0.3, 1, 1e-5)
        assert abs(got - math.cos(0.3)) / abs(math.cos(0.3)) < 1e-8

    def test_cubic_third_derivative(self):
        got = fd_oracle(lambda t: t**3, 1.0, 3, 1e-3)
        assert abs(got - 6.0) / 6.0 < 1e-6

    def test_constant(self):
        assert abs(fd_oracle(lambda t: 7.0, 0.42, 1)) < 1e-12

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            fd_oracle(math.sin, 0.0, 4)


finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
coeff_lists = st.lists(finite, min_size=6, max_size=6)


@given(coeff_lists, coeff_lists)
def test_multiplication_commutes(a, b):
    x, y = Jet(a), Jet(b)
    for p, q in zip((x * y).coeffs, (y * x).coeffs):
        assert abs(p - q) <= 1e-13 * max(1.0, abs(p))


@given(coeff_lists, coeff_lists, coeff_lists)
def test_multiplication_associates(a, b, c):
    x, y, z = Jet(a), Jet(b), Jet(c)
    for p, q in zip(((x * y) * z).coeffs, (x * (y * z)).coeffs):
        assert abs(p - q) <= 1e-13 * max(1.0, abs(p))


@given(st.lists(finite, min_size=5, max_size=5), coeff_lists, coeff_lists)
def test_norm_squared_matches_dot(head, b, c):
    # Keep the leading entry away from zero so the norm is well-defined.
    v = [Jet([1.5] + head), Jet(b), Jet(c)]
    nsq = norm(v) * norm(v)
    dvv = dot(v, v)
    for p, q in zip(nsq.coeffs, dvv.coeffs):
        assert abs(p - q) <= 1e-13 * max(1.0, abs(q))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.3, max_value=1.8, allow_nan=False),
    st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
)
def test_jet_derivatives_match_fd(t0, a, b):
    # f(t) = sin(a t) * exp(b sin t) is smooth with tame derivatives here.
    def f(t):
        return math.sin(a * t) * math.exp(b * math.sin(t))

    t = Jet.variable(t0, 3)
    jet = jet_sin(t * a) * jet_exp(jet_sin(t) * b)
    for k, h in ((1, 1e-5), (2, 1e-3), (3, 1e-2)):
        want = fd_oracle(f, t0, k, h)
        got = jet.derivative(k)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(got))
