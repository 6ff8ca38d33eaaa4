"""Seeded inputs, call lists and independent output checks for each workload.

frenetlift sees only the ``.curve``, ``.field`` and ``.conn`` files written
here.  Every reference value is computed in this module from its own closed
forms and analytic derivatives, never by calling frenetlift, so a wrong
answer from the program cannot also be the expected answer.

Curve families are chosen so curvature is bounded away from zero
analytically (see :func:`torus_knot`); no input is picked by running the
program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# frenetlift's default residual_tol: vertical and flat-horizontal lifts and
# the base Frenet sweep keep their residual columns below it.
RESIDUAL_TOL = 1e-9
# Bound frenetlift's own verify suite applies to the Prop. 2.1 residuals.
PROP21_TOL = 1e-10
# Agreement between program output and this module's references, relative
# to max(1, |reference|).  Jets are exact to rounding, so real disagreements
# are many orders larger.
REF_TOL = 1e-8

SWEEP_SAMPLES = 64
TRANSPORT_SAMPLES = 8
# Parameter length of the transport curves.  frenetlift integrates at 1000
# RK4 steps per unit, so each call makes 450 and 300 steps (about 64 and 43
# per grid interval).  A knot step costs about 1.5 helix steps, so the two
# kinds of call take the same time and the call-time median is well defined.
HELIX_TRANSPORT_LENGTH = 0.45
KNOT_TRANSPORT_LENGTH = 0.3
IDENTITY_POINTS = 16
VERIFY_SAMPLES = 50
# frenetlift's transport resolution (TRANSPORT_STEPS_PER_UNIT), used only to
# predict traced counts; the benchmark's own reference integrates finer.
PROGRAM_RK4_STEPS_PER_UNIT = 1000
REF_RK4_STEPS_PER_UNIT = 4000


# --- small vector helpers ----------------------------------------------------


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _norm(a):
    return math.sqrt(_dot(a, a))


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _num(x: float) -> str:
    """Literal for a generated parameter; parsing it back gives x exactly."""
    return repr(float(x))


# --- curves --------------------------------------------------------------------

# n-th derivative of cos(w t) and sin(w t), as (function, sign) per n mod 4.
_COS_CYCLE = ((math.cos, 1.0), (math.sin, -1.0), (math.cos, -1.0), (math.sin, 1.0))
_SIN_CYCLE = ((math.sin, 1.0), (math.cos, 1.0), (math.sin, -1.0), (math.cos, -1.0))


@dataclass(frozen=True)
class TrigCurve:
    """A curve whose components are sums of A*t, A*cos(w*t) and A*sin(w*t).

    ``terms[i]`` lists (kind, A, w) for component i; derivatives of any
    order follow in closed form.  ``exprs`` is the text frenetlift parses,
    which may be written differently (torus knots use the product form).
    """

    name: str
    exprs: tuple[str, str, str]
    terms: tuple[tuple[tuple[str, float, float], ...], ...]
    t_min: float
    t_max: float
    helix: tuple[float, float, float] | None = None  # (a, w, c) for helices

    def deriv(self, t: float, n: int) -> tuple[float, float, float]:
        out = []
        for comp in self.terms:
            s = 0.0
            for kind, A, w in comp:
                if kind == "lin":
                    s += A * t if n == 0 else (A if n == 1 else 0.0)
                else:
                    fn, sign = (_COS_CYCLE if kind == "cos" else _SIN_CYCLE)[n % 4]
                    s += sign * A * w**n * fn(w * t)
            out.append(s)
        return tuple(out)

    def write(self, path: Path) -> str:
        x1, x2, x3 = self.exprs
        path.write_text(
            f"name = {self.name}\nx1 = {x1}\nx2 = {x2}\nx3 = {x3}\n"
            f"t_min = {_num(self.t_min)}\nt_max = {_num(self.t_max)}\n",
            encoding="utf-8",
        )
        return str(path)

    def grid(self, n: int) -> list[float]:
        step = (self.t_max - self.t_min) / (n - 1)
        return [self.t_min + i * step for i in range(n - 1)] + [self.t_max]


def helix(rng: random.Random, name: str, length: float | None = None) -> TrigCurve:
    """Circular helix (a cos wt, a sin wt, c t); kappa = a w^2/(a^2 w^2 + c^2) > 0."""
    a = round(rng.uniform(0.5, 3.0), 4)
    w = round(rng.uniform(0.3, 2.0), 4)
    c = round(rng.uniform(0.2, 2.0), 4)
    t_min = round(rng.uniform(-1.0, 1.0), 4)
    t_max = t_min + (length if length is not None else round(rng.uniform(2.0, 8.0), 4))
    exprs = (f"{_num(a)}*cos({_num(w)}*t)", f"{_num(a)}*sin({_num(w)}*t)", f"{_num(c)}*t")
    terms = ((("cos", a, w),), (("sin", a, w),), (("lin", c, 0.0),))
    return TrigCurve(name, exprs, terms, t_min, t_max, helix=(a, w, c))


# Coprime winding pairs (p around the axis, q around the tube), all >= 2 so
# every knot parses to the same expression shape.
_KNOT_WINDINGS = ((2, 3), (3, 2), (2, 5), (3, 4), (3, 5), (5, 2), (4, 3), (5, 3))


def torus_knot(rng: random.Random, name: str, length: float | None = None) -> TrigCurve:
    """((R + r cos qt) cos pt, (R + r cos qt) sin pt, r sin qt).

    In the frame rotating with angle pt, the radial/azimuthal component of
    beta' x beta'' is p (2 r^2 q^2 sin^2 + rho r q^2 cos + rho^2 p^2) with
    rho = R + r cos qt >= R - r, which is at least p (R-r) ((R-r) p^2 - r q^2).
    Choosing (R - r) p^2 >= 2 r q^2 keeps the curvature bounded away from 0.
    """
    p, q = rng.choice(_KNOT_WINDINGS)
    r = round(rng.uniform(0.2, 0.6), 4)
    R = round(r * (1.0 + 2.0 * q * q / (p * p)) * rng.uniform(1.1, 1.6), 4)
    t_min = round(rng.uniform(-1.0, 1.0), 4)
    t_max = t_min + (length if length is not None else round(rng.uniform(2.0, 2.0 * math.pi), 4))
    ring = f"({_num(R)} + {_num(r)}*cos({q}*t))"
    exprs = (f"{ring}*cos({p}*t)", f"{ring}*sin({p}*t)", f"{_num(r)}*sin({q}*t)")
    # Product-to-sum form: an independent route to the same components.
    half = 0.5 * r
    terms = (
        (("cos", R, p), ("cos", half, p + q), ("cos", half, p - q)),
        (("sin", R, p), ("sin", half, p + q), ("sin", half, p - q)),
        (("sin", r, q),),
    )
    return TrigCurve(name, exprs, terms, t_min, t_max)


@dataclass(frozen=True)
class Apparatus:
    point: tuple
    speed: float
    T: tuple
    N: tuple
    B: tuple
    kappa: float
    tau: float


def apparatus(curve: TrigCurve, t: float) -> Apparatus:
    d1, d2, d3 = (curve.deriv(t, n) for n in (1, 2, 3))
    speed = _norm(d1)
    c = _cross(d1, d2)
    cn = _norm(c)
    T = tuple(x / speed for x in d1)
    B = tuple(x / cn for x in c)
    N = _cross(B, T)
    kappa = cn / speed**3
    tau = _dot(c, d3) / (cn * cn)
    if curve.helix is not None:
        a, w, cz = curve.helix
        den = a * a * w * w + cz * cz
        kappa, tau = a * w * w / den, cz * w / den
    return Apparatus(curve.deriv(t, 0), speed, T, N, B, kappa, tau)


def complete_lift_curvatures(curve: TrigCurve, t: float) -> tuple[float, float]:
    """First two curvatures of t -> (beta, beta') in R^6.

    Helices use the lifted-helix closed form (a helix of radius
    a sqrt(1 + w^2)); other curves the Gram-determinant formulas
    chi1 = sqrt(D2)/D1^(3/2), chi2 = sqrt(D3)/D2.
    """
    if curve.helix is not None:
        a, w, c = curve.helix
        R = a * math.sqrt(1.0 + w * w)
        den = R * R * w * w + c * c
        return R * w * w / den, c * w / den
    g = [curve.deriv(t, k) + curve.deriv(t, k + 1) for k in (1, 2, 3)]
    G = [[_dot(u, v) for v in g] for u in g]
    D1 = G[0][0]
    D2 = G[0][0] * G[1][1] - G[0][1] ** 2
    D3 = (
        G[0][0] * (G[1][1] * G[2][2] - G[1][2] * G[2][1])
        - G[0][1] * (G[1][0] * G[2][2] - G[1][2] * G[2][0])
        + G[0][2] * (G[1][0] * G[2][1] - G[1][1] * G[2][0])
    )
    return math.sqrt(D2) / D1**1.5, math.sqrt(max(D3, 0.0)) / D2


# --- connections and transport ---------------------------------------------------


def metric_connection(rng: random.Random) -> list:
    """G[a][b][g] antisymmetric in (a, g) for each b, so |w| is conserved."""
    G = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    for b in range(3):
        for a, g in ((0, 1), (0, 2), (1, 2)):
            v = round(rng.uniform(0.1, 0.6), 4) * rng.choice((-1.0, 1.0))
            G[a][b][g] = v
            G[g][b][a] = -v
    return G


def general_connection(rng: random.Random) -> list:
    """All 27 symbols nonzero, so every contraction does the same work."""
    return [
        [[round(rng.uniform(0.05, 0.5), 4) * rng.choice((-1.0, 1.0)) for _ in range(3)]
         for _ in range(3)]
        for _ in range(3)
    ]


def write_connection(G, path: Path) -> str:
    lines = [
        f"gamma {a + 1} {b + 1} {g + 1} = {_num(G[a][b][g])}"
        for a in range(3) for b in range(3) for g in range(3) if G[a][b][g] != 0.0
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _contract(G, direction, transported):
    return [
        sum(G[a][b][g] * direction[b] * transported[g] for b in range(3) for g in range(3))
        for a in range(3)
    ]


def reference_transport(G, curve: TrigCurve, w0, targets) -> list[tuple]:
    """w' = -G(beta', w) by classical RK4 on analytic velocities."""
    def rhs(t, w):
        return [-v for v in _contract(G, curve.deriv(t, 1), w)]

    out = []
    w = list(w0)
    prev = curve.t_min
    for t in targets:
        n = max(1, math.ceil(REF_RK4_STEPS_PER_UNIT * (t - prev)))
        h = (t - prev) / n
        for i in range(n):
            u = prev + i * h
            k1 = rhs(u, w)
            k2 = rhs(u + 0.5 * h, [a + 0.5 * h * k for a, k in zip(w, k1)])
            k3 = rhs(u + 0.5 * h, [a + 0.5 * h * k for a, k in zip(w, k2)])
            k4 = rhs(u + h, [a + h * k for a, k in zip(w, k3)])
            w = [a + h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(w, k1, k2, k3, k4)]
        prev = t
        out.append(tuple(w))
    return out


# --- fields ----------------------------------------------------------------------


@dataclass(frozen=True)
class Field:
    """Sum of terms over x1..x3 with value and gradient in closed form.

    Terms: ("mono", A, (i, j, ...)), ("sin"|"cos", B, C, k), ("lin", D, l),
    with 0-based variable indices.
    """

    components: tuple[tuple[tuple, ...], ...]
    exprs: tuple[str, ...]

    def value(self, x) -> tuple[float, ...]:
        out = []
        for comp in self.components:
            s = 0.0
            for term in comp:
                kind = term[0]
                if kind == "mono":
                    s += term[1] * math.prod(x[i] for i in term[2])
                elif kind == "sin":
                    s += term[1] * math.sin(term[2] * x[term[3]])
                elif kind == "cos":
                    s += term[1] * math.cos(term[2] * x[term[3]])
                else:
                    s += term[1] * x[term[2]]
            out.append(s)
        return tuple(out)

    def jacobian(self, x) -> list[list[float]]:
        """J[a][b] = d component_a / d x_b."""
        J = []
        for comp in self.components:
            row = [0.0, 0.0, 0.0]
            for term in comp:
                kind = term[0]
                if kind == "mono":
                    idx = term[2]
                    for pos, i in enumerate(idx):
                        row[i] += term[1] * math.prod(x[j] for q, j in enumerate(idx) if q != pos)
                elif kind == "sin":
                    row[term[3]] += term[1] * term[2] * math.cos(term[2] * x[term[3]])
                elif kind == "cos":
                    row[term[3]] -= term[1] * term[2] * math.sin(term[2] * x[term[3]])
                else:
                    row[term[2]] += term[1]
            J.append(row)
        return J

    def write(self, path: Path) -> str:
        keys = ("f",) if len(self.exprs) == 1 else ("X1", "X2", "X3")
        path.write_text(
            "".join(f"{k} = {e}\n" for k, e in zip(keys, self.exprs)), encoding="utf-8"
        )
        return str(path)


def _field_component(rng: random.Random, degree: int, trig: str):
    """A*x_i*x_j[*x_k] +- B*trig(C*x_k) +- D*x_l, one fixed shape per degree."""
    A = round(rng.uniform(0.05, 0.5), 4)
    B = round(rng.uniform(0.1, 1.0), 4)
    C = round(rng.uniform(0.3, 1.5), 4)
    D = round(rng.uniform(0.1, 1.0), 4)
    mono = tuple(rng.randrange(3) for _ in range(degree))
    k, l = rng.randrange(3), rng.randrange(3)
    op1, op2 = rng.choice("+-"), rng.choice("+-")
    sB = B if op1 == "+" else -B
    sD = D if op2 == "+" else -D
    text = (
        "*".join([_num(A)] + [f"x{i + 1}" for i in mono])
        + f" {op1} {_num(B)}*{trig}({_num(C)}*x{k + 1}) {op2} {_num(D)}*x{l + 1}"
    )
    return (("mono", A, mono), (trig, sB, C, k), ("lin", sD, l)), text


def vector_field(rng: random.Random) -> Field:
    parts = [_field_component(rng, 2, "sin") for _ in range(3)]
    return Field(tuple(p[0] for p in parts), tuple(p[1] for p in parts))


def scalar_field(rng: random.Random) -> Field:
    comp, text = _field_component(rng, 3, "cos")
    return Field((comp,), (text,))


# --- output parsing and checks ---------------------------------------------------


class CheckFailed(Exception):
    pass


def _close(got: float, want: float, what: str, tol: float = REF_TOL) -> None:
    if not abs(got - want) <= tol * max(1.0, abs(want)):
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def _close_vec(got, want, what: str, tol: float = REF_TOL) -> None:
    for i, (g, w) in enumerate(zip(got, want)):
        _close(g, w, f"{what}[{i}]", tol)


def _at_most(got: float, bound: float, what: str) -> None:
    if not got <= bound:
        raise CheckFailed(f"{what}: {got!r} exceeds {bound!r}")


def _read_csv(text: str, header_start: list[str], rows: int):
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CheckFailed("empty output")
    header = lines[0].split(",")
    if header[: len(header_start)] != header_start:
        raise CheckFailed(f"unexpected header {lines[0][:80]!r}")
    trailer = None
    body = lines[1:]
    if body and body[-1].startswith("#"):
        trailer = body.pop()
    if len(body) != rows:
        raise CheckFailed(f"expected {rows} rows, got {len(body)}")
    table = [dict(zip(header, map(float, line.split(",")))) for line in body]
    return table, trailer


def _check_grid(table, curve: TrigCurve) -> None:
    for row, t in zip(table, curve.grid(len(table))):
        _close(row["t"], t, "grid t", 1e-12)


def _cols(row, prefix: str, n: int):
    return tuple(row[f"{prefix}{i}"] for i in range(1, n + 1))


def check_frenet(curve: TrigCurve, samples: int, text: str) -> None:
    table, _ = _read_csv(text, ["t", "x1", "x2", "x3", "T1"], samples)
    _check_grid(table, curve)
    for row in table:
        ref = apparatus(curve, row["t"])
        _close_vec(_cols(row, "x", 3), ref.point, "point")
        _close_vec(_cols(row, "T", 3), ref.T, "T")
        _close_vec(_cols(row, "N", 3), ref.N, "N")
        _close_vec(_cols(row, "B", 3), ref.B, "B")
        _close(row["kappa"], ref.kappa, "kappa")
        _close(row["tau"], ref.tau, "tau")
        for col in ("res_T", "res_N", "res_B"):
            _at_most(row[col], RESIDUAL_TOL, col)


_LIFT_HEADER = ["t", "p1", "p2", "p3", "p4", "p5", "p6", "Tl1"]
_ZERO3 = (0.0, 0.0, 0.0)


def _check_trailer(trailer: str | None) -> None:
    if trailer is None:
        raise CheckFailed("missing summary trailer")
    fields = dict(item.split("=", 1) for item in trailer[1:].split())
    for key in ("max_residual", "max_discrepancy", "frame_ortho_max", "kappa_spread"):
        float(fields[key])  # KeyError or ValueError counts as a failed call


def check_lift(curve: TrigCurve, kind: str, samples: int, w0, text: str) -> None:
    """Vertical, complete and flat-horizontal lift sweeps."""
    table, trailer = _read_csv(text, _LIFT_HEADER, samples)
    _check_trailer(trailer)
    _check_grid(table, curve)
    anchor = curve.deriv(curve.t_min, 0)
    for row in table:
        t = row["t"]
        ref = apparatus(curve, t)
        p = _cols(row, "p", 6)
        frame = (_cols(row, "Tl", 6), _cols(row, "Nl", 6), _cols(row, "Bl", 6))
        if kind == "c":
            _close_vec(p, ref.point + curve.deriv(t, 1), "complete point")
            s, k, tau = ref.speed, ref.kappa, ref.tau
            dT = tuple(s * k * n for n in ref.N)
            dN = tuple(s * (-k * a + tau * b) for a, b in zip(ref.T, ref.B))
            dB = tuple(-s * tau * n for n in ref.N)
            for got, want, name in zip(frame, (ref.T + dT, ref.N + dN, ref.B + dB), "TNB"):
                _close_vec(got, want, f"complete {name}l")
            ok, ot = complete_lift_curvatures(curve, t)
            _close(row["oracle_kappa"], ok, "complete oracle_kappa")
            _close(row["oracle_tau"], ot, "complete oracle_tau")
            continue
        if kind == "v":
            _close_vec(p, anchor + ref.point, "vertical point")
            want = (_ZERO3 + ref.T, _ZERO3 + ref.N, _ZERO3 + ref.B)
        else:
            _close_vec(p, ref.point + tuple(w0), "horizontal point")
            want = (ref.T + _ZERO3, ref.N + _ZERO3, ref.B + _ZERO3)
        for got, w, name in zip(frame, want, "TNB"):
            _close_vec(got, w, f"{kind} {name}l")
        _close(row["kappa_lift"], ref.kappa, "kappa_lift")
        _close(row["tau_lift"], ref.tau, "tau_lift")
        # The lifted curve is an isometric copy of the base in R^6, where the
        # Gram-Schmidt flag leaves the second curvature nonnegative.  At a
        # torsion zero the flag is rank deficient and frenetlift writes nan.
        if not (math.isnan(row["oracle_tau"]) and abs(ref.tau) < 1e-6):
            _close(row["oracle_kappa"], ref.kappa, "oracle_kappa")
            _close(row["oracle_tau"], abs(ref.tau), "oracle_tau")
        for col in ("res1", "res2", "res3"):
            _at_most(row[col], RESIDUAL_TOL, col)


def check_transport(curve: TrigCurve, samples: int, w0, checkpoints, text: str) -> None:
    """Non-flat horizontal lift: base point, |w| conserved, w against own RK4."""
    table, trailer = _read_csv(text, _LIFT_HEADER, samples)
    _check_trailer(trailer)
    _check_grid(table, curve)
    w0n = _norm(w0)
    for row in table:
        _close_vec(_cols(row, "p", 3), curve.deriv(row["t"], 0), "base point")
        _close(_norm(_cols(row, "p", 6)[3:]), w0n, "|w|")
    for index, w in checkpoints:
        _close_vec(_cols(table[index], "p", 6)[3:], w, f"w at row {index}", 1e-8 * max(1.0, w0n))


def check_fields(X: Field, G, points, text: str) -> None:
    table, _ = _read_csv(text, ["x1", "x2", "x3", "y1", "y2", "y3", "v1"], len(points))
    res_cols = [k for k in (table[0] if table else {}) if k.startswith("res_")]
    if len(res_cols) != 16:
        raise CheckFailed(f"expected 16 identity residual columns, got {len(res_cols)}")
    for row, pt in zip(table, points):
        x, y = pt[:3], pt[3:]
        _close_vec(_cols(row, "x", 3) + _cols(row, "y", 3), pt, "point echo", 0.0)
        Xv = X.value(x)
        J = X.jacobian(x)
        Jy = tuple(_dot(J[a], y) for a in range(3))
        h = tuple(-v for v in _contract(G, y, Xv))
        _close_vec(_cols(row, "v", 6), _ZERO3 + Xv, "vertical lift")
        _close_vec(_cols(row, "c", 6), Xv + Jy, "complete lift")
        _close_vec(_cols(row, "h", 6), Xv + h, "horizontal lift")
        for col in res_cols:
            _at_most(row[col], PROP21_TOL, col)


def check_verify(text: str) -> int:
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        raise CheckFailed("verify printed nothing")
    failing = [ln for ln in lines if not ln.startswith("PASS ")]
    if failing:
        raise CheckFailed(f"verify line not PASS: {failing[0]!r}")
    return len(lines)


# --- workloads -------------------------------------------------------------------


@dataclass
class Call:
    """One ``cli.main`` invocation with the check its output must pass."""

    argv: list[str]
    out: Path
    units: int
    check: Callable[[str], object]
    command: str  # frenet, lift-v, lift-c, lift-h, transport, fields, verify
    rk4_steps: int = 0  # transport steps frenetlift takes, for the traced count check


@dataclass
class Workload:
    calls: list[Call]      # one round; the timed loop repeats whole rounds
    warmup: list[Call]     # small calls run during set-up
    unit: str
    trace_rounds: int      # rounds in the traced run
    describe: str


def _lift_argv(path: str, kind: str, samples: int, out: Path, w0=None, conn=None) -> list[str]:
    argv = ["lift", "--curve", path, "--kind", kind, "--samples", str(samples), "--out", str(out)]
    if w0 is not None:
        # '--w0=' form: argparse reads a leading '-1.2,...' as an option flag.
        argv.append("--w0=" + ",".join(_num(v) for v in w0))
    if conn is not None:
        argv += ["--connection", conn]
    return argv


def _w0(rng: random.Random) -> tuple[float, float, float]:
    while True:
        w = tuple(round(rng.uniform(-2.0, 2.0), 4) for _ in range(3))
        if _norm(w) > 0.5:
            return w


def _curve_calls(curve: TrigCurve, rng, workdir: Path, tag: str, samples: int) -> list[Call]:
    path = curve.write(workdir / f"{tag}.curve")
    calls = []
    out = workdir / f"{tag}-frenet.csv"
    calls.append(Call(
        ["frenet", "--curve", path, "--samples", str(samples), "--out", str(out)],
        out, samples, lambda text, c=curve: check_frenet(c, samples, text), "frenet",
    ))
    w0 = _w0(rng)
    for kind in "vch":
        out = workdir / f"{tag}-lift-{kind}.csv"
        calls.append(Call(
            _lift_argv(path, kind, samples, out, w0 if kind == "h" else None),
            out, samples,
            lambda text, c=curve, k=kind: check_lift(c, k, samples, w0, text),
            f"lift-{kind}",
        ))
    return calls


def build_sweep(rng: random.Random, workdir: Path) -> Workload:
    curves = [helix(rng, f"helix{i}") for i in range(2)]
    curves += [torus_knot(rng, f"knot{i}") for i in range(2)]
    calls = []
    for curve in curves:
        calls += _curve_calls(curve, rng, workdir, curve.name, SWEEP_SAMPLES)
    warmup = _curve_calls(helix(rng, "warm"), rng, workdir, "warm", 4)
    return Workload(
        calls, warmup, "grid points", 1,
        f"2 helices + 2 torus knots x (frenet, lift v, c, flat h) at {SWEEP_SAMPLES} samples",
    )


def _transport_call(curve: TrigCurve, G, conn: str, rng, workdir: Path, samples: int) -> Call:
    path = curve.write(workdir / f"{curve.name}.curve")
    out = workdir / f"{curve.name}-transport.csv"
    w0 = _w0(rng)
    grid = curve.grid(samples)
    rows = sorted({0, samples // 2, samples - 1})
    ref = reference_transport(G, curve, w0, [grid[i] for i in rows])
    checkpoints = list(zip(rows, ref))
    return Call(
        _lift_argv(path, "h", samples, out, w0, conn), out, samples,
        lambda text: check_transport(curve, samples, w0, checkpoints, text), "transport",
        transport_steps(curve, samples),
    )


def transport_steps(curve: TrigCurve, samples: int) -> int:
    """RK4 steps frenetlift takes across the sample grid at its documented resolution."""
    grid = curve.grid(samples)
    return sum(max(1, math.ceil(PROGRAM_RK4_STEPS_PER_UNIT * (b - a)))
               for a, b in zip(grid, grid[1:]))


def build_transport(rng: random.Random, workdir: Path) -> Workload:
    G = metric_connection(rng)
    conn = write_connection(G, workdir / "metric.conn")
    curves = [helix(rng, f"helix{i}", HELIX_TRANSPORT_LENGTH) for i in range(2)]
    curves += [torus_knot(rng, f"knot{i}", KNOT_TRANSPORT_LENGTH) for i in range(2)]
    calls = [_transport_call(c, G, conn, rng, workdir, TRANSPORT_SAMPLES) for c in curves]
    warm = helix(rng, "warm", 0.02)
    warmup = [_transport_call(warm, G, conn, rng, workdir, 4)]
    return Workload(
        calls, warmup, "grid points", 3,
        f"lift h, metric connection, 2 helices (length {HELIX_TRANSPORT_LENGTH}) + 2 knots "
        f"(length {KNOT_TRANSPORT_LENGTH}) at {TRANSPORT_SAMPLES} samples",
    )


def _fields_call(rng, workdir: Path, tag: str, X, Y, f, g, G, npoints: int) -> Call:
    paths = [s.write(workdir / f"{tag}-{n}.field") for s, n in ((X, "X"), (Y, "Y"), (f, "f"), (g, "g"))]
    conn = write_connection(G, workdir / f"{tag}.conn")
    points = [
        tuple(round(rng.uniform(-2.0, 2.0), 4) for _ in range(6)) for _ in range(npoints)
    ]
    out = workdir / f"{tag}-fields.csv"
    argv = ["fields", "--field", paths[0], "--field", paths[1], "--scalar", paths[2],
            "--scalar", paths[3], "--connection", conn, "--out", str(out)]
    # '--point=' form: argparse reads a leading '-1.5,...' as an option flag.
    argv += ["--point=" + ",".join(_num(v) for v in pt) for pt in points]
    return Call(argv, out, npoints, lambda text: check_fields(X, G, points, text), "fields")


def build_identities(rng: random.Random, workdir: Path) -> Workload:
    calls = []
    for i in range(2):
        X, Y = vector_field(rng), vector_field(rng)
        f, g = scalar_field(rng), scalar_field(rng)
        G = general_connection(rng)
        for j in range(2):
            calls.append(_fields_call(rng, workdir, f"q{i}b{j}", X, Y, f, g, G, IDENTITY_POINTS))
    X, Y, f, g = vector_field(rng), vector_field(rng), scalar_field(rng), scalar_field(rng)
    warmup = [_fields_call(rng, workdir, "warm", X, Y, f, g, general_connection(rng), 1)]
    return Workload(
        calls, warmup, "tangent points", 3,
        f"fields, 2 seeded (X, Y, f, g, G) x 2 batches of {IDENTITY_POINTS} tangent points",
    )


def build_verify(rng: random.Random, workdir: Path) -> Workload:
    out = workdir / "verify.txt"
    call = Call(
        ["verify", "--samples", str(VERIFY_SAMPLES), "--out", str(out)],
        out, 0, check_verify, "verify",
    )
    # verify has no small form; a short frenet sweep loads the shared layers.
    warmup = _curve_calls(helix(rng, "warm"), rng, workdir, "warm", 4)[:1]
    return Workload(
        [call], warmup, "checks", 1,
        f"verify --samples {VERIFY_SAMPLES}; its inputs come from frenetlift's fixed "
        "internal seed, so --seed changes only the warm-up curve",
    )


BUILDERS = {
    "sweep": build_sweep,
    "transport": build_transport,
    "identities": build_identities,
    "verify": build_verify,
}
