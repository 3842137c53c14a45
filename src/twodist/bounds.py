"""Upper bounds for the size of two-distance codes.

All methods are exact: the restricted Delsarte linear program is solved
in integer arithmetic by walking the boundary of its 2-variable feasible
polygon from the origin to an optimal vertex, the closed-form bounds
are evaluated as fractions and floored at the very end.  Identical input
always produces a bit-identical report.

Method tags used throughout (and printed in tables):

    lp      full linear programming bound (all Krawtchouk constraints)
    plotkin degree-1 certificate
    d2      degree-2 closed-form bound
    dd      single-step refinement of an integer d2 by its forced distance distribution
    sc      two-distance spherical code bound
    gr      Gray-Rankin bound (valid for antipodal codes only, never
            aggregated as a general upper bound)
    ext     externally supplied best-known bound for A_q(n, d)
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import BoundStatus, TwoDistParams
from .krawtchouk import kraw_eval, kraw_rows
from . import feasibility


def lp_optimum(params: TwoDistParams) -> tuple[Fraction, tuple[Fraction, Fraction]]:
    """Exact optimum of max 1 + A_d + A_e over the restricted Delsarte LP.

    Returns the optimum and an attaining vertex (A_d, A_e).  The rows are
    a*A_d + b*A_e + c >= 0 with (a, b, c) = (K_i(d), K_i(e), K_i(0)) for
    i = 1..n, and c = (q-1)^i C(n, i) > 0.  The region is bounded, as
    `_lp_solve` requires: the rows satisfy sum_{i=0..n} K_i(z) = q^n [z = 0],
    the generating function (1 + (q-1)t)^(n-z) (1-t)^z at t = 1, so rows
    1..n add up to q^n - 1 - A_d - A_e >= 0.

    Along the x-axis only the distance d occurs, so the walk's first
    vertex, which `_lp_solve` finds while it reads the rows, is (x_1, 0)
    with x_1 the least K_i(0) / -K_i(d) over the i with K_i(d) < 0:
    1 + floor(x_1) = E(d) = `equidistant_lp_bound(n, q, d)`.
    """
    return _lp_solve(kraw_rows(params.n, params.q, params.d, params.d2))


def _lp_meet(r1, r2) -> tuple[int, int, int]:
    """Crossing (X/det, Y/det) of two row lines as integers (X, Y, det), det > 0."""
    a1, b1, c1 = r1
    a2, b2, c2 = r2
    det = a1 * b2 - a2 * b1
    x = c2 * b1 - c1 * b2
    y = a2 * c1 - a1 * c2
    return (x, y, det) if det > 0 else (-x, -y, -det)


def _lp_solve(kraw) -> tuple[Fraction, tuple[Fraction, Fraction]]:
    """Maximise 1 + x + y over x, y >= 0 and the rows (a, b, c) of `kraw`, each with c > 0.

    The region must be bounded.  Every vertex is kept as integer
    numerators (X, Y) over a determinant det > 0, and every comparison is
    an integer cross-multiplication; no Fraction is built until the result
    is returned.

    The origin is a vertex where only the axes are tight.  From it the
    walk follows the boundary counterclockwise, starting along the x-axis:
    on the line of row (a, b, c) it moves in direction (b, -a), and the
    rows with the least ratio slack / rate stop it, slack = aX + bY + c*det
    and rate the speed at which that slack falls.  A bounded region has
    no ray, so some row always stops the walk.  The next edge runs along
    the stopping row whose direction stays inside the half-planes of the
    other stopping rows.  The objective rises along an edge by b - a; the
    walk ends at the first vertex whose next edge falls.  That vertex is
    optimal: on a convex polygon a linear objective has no local maximum
    along the boundary other than the global one.  An edge with b = a just
    before it is optimal too, and the walk has crossed it to its far end.

    One pass reads the rows.  It puts the two axes in front and keeps only
    the rows with a < 0 or b < 0.  A dropped row has a, b >= 0 and c > 0,
    so its slack a*x + b*y + c is at least c > 0 on the whole quadrant
    x, y >= 0.  Where its slack falls along an edge, x or y falls too, and
    that axis's slack reaches 0 strictly before the row's does.  So the row
    never stops the walk and never enters a tie: the walk, its vertex and
    the optimum are those of all the rows.  The same pass finds the stops
    of the first edge, from (X, Y, det) = (0, 0, 1) along the x-axis, where
    a row's slack is c and its rate -a, so only the rows with a < 0 can
    stop it.  Every later edge is found by a stop scan over the kept rows:
    along the line of row (a_r, b_r, c_r) a row's rate is b*a_r - a*b_r.
    """
    rows = [(1, 0, 0), (0, 1, 0)]
    # the least slack / rate so far starts at 1 / 0, above every finite ratio
    stops, stop_slack, stop_rate = [], 1, 0
    for row in kraw:
        a, b, c = row
        if a < 0:
            if c * stop_rate < -a * stop_slack:
                stops, stop_slack, stop_rate = [len(rows)], c, -a
            elif c * stop_rate == -a * stop_slack:
                stops.append(len(rows))
        elif b >= 0:
            continue
        rows.append(row)
    # where the x-axis meets the first stopping row: the `_lp_meet` of the two
    x, y, det = stop_slack, 0, stop_rate
    while True:
        if len(stops) == 1:
            r = stops[0]
        else:
            r = next(
                k for k in stops
                if all(rows[j][0] * rows[k][1] - rows[j][1] * rows[k][0] >= 0 for j in stops)
            )
        ar, br, _ = rows[r]
        if br < ar:
            return Fraction(det + x + y, det), (Fraction(x, det), Fraction(y, det))
        stops, stop_slack, stop_rate = [], 1, 0
        for k, (a, b, c) in enumerate(rows):
            rate = b * ar - a * br
            if rate <= 0:
                continue
            slack = a * x + b * y + c * det
            if slack * stop_rate < stop_slack * rate:
                stops, stop_slack, stop_rate = [k], slack, rate
            elif slack * stop_rate == stop_slack * rate:
                stops.append(k)
        x, y, det = _lp_meet(rows[r], rows[stops[0]])


def equidistant_lp_bound(n: int, q: int, dist: int) -> int:
    """E(D), Delsarte's bound on a q-ary length-n code with all distances D = `dist` >= 1.

    Such a code of M words has distance distribution A_0 = 1, A_D = M - 1,
    and Delsarte's inequalities sum_j A_j K_i(j) >= 0 read
    K_i(0) + (M - 1) K_i(D) >= 0.  Every i with K_i(D) < 0 therefore gives
    M <= 1 + floor(K_i(0) / -K_i(D)), and E(D) is the least of these.  Such
    an i exists: sum_{i=0..n} K_i(D) = q^n [D = 0] = 0 and K_0 = 1, so
    sum_{i>=1} K_i(D) = -1.
    """
    return 1 + min(k_0 // -k_d for k_d, _, k_0 in kraw_rows(n, q, dist, dist) if k_d < 0)


def plotkin_bound(params: TwoDistParams) -> int | None:
    """floor(qd / (qd - (q-1)n)) when qd > (q-1)n, else None."""
    q, n, d = params.q, params.n, params.d
    excess = q * d - (q - 1) * n
    if excess <= 0:
        return None
    return (q * d) // excess


@dataclass(frozen=True)
class D2Bound:
    """Degree-2 bound outcome; `strict` records a strict degree-1 coefficient."""

    value: int
    exact: Fraction
    strict: bool

    @property
    def attains_integer(self) -> bool:
        return self.exact.denominator == 1


def d2_bound(params: TwoDistParams) -> D2Bound | None:
    """Closed-form degree-2 certificate bound, or None when inapplicable.

    Applicable when both Krawtchouk coefficients f_1, f_0 of the quadratic
    certificate are nonnegative resp. positive; `strict` is True when f_1
    is strictly positive, in which case a code attaining the bound is an
    orthogonal array of strength 2 (which dd_refine exploits).
    """
    q, n, d, delta = params.q, params.n, params.d, params.delta
    f1_lhs = q * (2 * d + delta)
    f1_rhs = 2 * n * q + 2 - 2 * n - q
    if f1_lhs < f1_rhs:
        return None
    denom = (
        n * (q - 1) * (n * q - n + 1)
        - q * q * (2 * n * d + n * delta - d * d - d * delta)
        + n * q * (2 * d + delta)
    )
    if denom <= 0:
        return None
    exact = Fraction(d * (d + delta) * q * q, denom)
    return D2Bound(value=math.floor(exact), exact=exact, strict=f1_lhs > f1_rhs)


def dd_refine(params: TwoDistParams) -> int | None:
    """Single-step refinement of an integer-attained degree-2 bound, or None.

    Applies when the d2 value N = f(0) / f_0 is an integer and has a strict
    degree-1 coefficient, so a code of that size would be an orthogonal
    array of strength 2 and its distance distribution, on {0, d, e}, must
    solve M_1 = M_2 = 0 in nonnegative integers.  The degree-2 certificate
    f = f_0 + f_1 K_1 + f_2 K_2 vanishes at d and e, so every such
    distribution has
        f(0) = sum_j A_j f(j) = f_0 (1 + A_d + A_e) + f_1 M_1 + f_2 M_2.
    A solution therefore lies on the line A_d + A_e = N - 1, and on that
    line M_1 = 0 forces M_2 = 0 (f has degree 2, so f_2 != 0).  M_1 = 0
    meets the line at
        A_d = -(K_1(0) + (N - 1) K_1(e)) / (K_1(d) - K_1(e)),
    where K_1(d) - K_1(e) = q delta > 0.  Returns N when that A_d is an
    integer in 0..N-1, N - 1 otherwise, and None when d2 does not apply
    this way.
    """
    d2 = d2_bound(params)
    if d2 is None or not d2.strict or not d2.attains_integer:
        return None
    bound = d2.value
    k_0, k_d, k_e = (kraw_eval(params.n, params.q, 1, z) for z in (0, params.d, params.d2))
    a_d, rest = divmod(-(k_0 + (bound - 1) * k_e), k_d - k_e)
    return bound if rest == 0 and 0 <= a_d <= bound - 1 else bound - 1


def gray_rankin_bound(q: int, n: int, d: int) -> int | None:
    """Cardinality bound for antipodal (n, N, d) codes over q symbols.

    Valid only for codes that split into groups of q words pairwise at
    full distance n; used to certify optimality of difference-matrix
    codes and never aggregated as a general two-distance bound.
    """
    if q < 2 or n < 1 or d < 1:
        raise ValueError("q>=2, n>=1, d>=1 required")
    denom = n - ((q - 1) * n - q * d) ** 2
    if denom <= 0:
        return None
    num = q * (q * d - (q - 2) * n) * (n - d)
    return (q * num) // denom


@dataclass(frozen=True)
class SphereBound:
    """Spherical two-distance set bound; value = 2(q-1)n + 1 when applicable, else None."""

    value: int | None
    r: int
    s: int


def sphere_bound(params: TwoDistParams) -> SphereBound:
    """Bound via the image of the code as a spherical two-distance set.

    With d/(d+delta) = r/s in lowest terms, the bound 2(q-1)n + 1 applies
    when s - r >= 2, or when s = r + 1 and (2r+1)^2 > 2(q-1)n.
    """
    g = math.gcd(params.d, params.d2)
    r, s = params.d // g, params.d2 // g
    m2 = 2 * (params.q - 1) * params.n
    applicable = (s - r >= 2) or (s == r + 1 and (2 * r + 1) ** 2 > m2)
    return SphereBound(m2 + 1 if applicable else None, r, s)


class ExternalBoundsError(ValueError):
    """Raised for malformed external bound tables."""


def read_external_bounds(text: str) -> dict[tuple[int, int, int], int]:
    """Best-known upper bounds for A_q(n, d) from csv `q,n,d,bound`, keyed by (q, n, d)."""
    rows: dict[tuple[int, int, int], int] = {}
    lines = text.splitlines()
    if not lines or [c.strip() for c in lines[0].split(",")] != ["q", "n", "d", "bound"]:
        raise ExternalBoundsError("line 1: expected header 'q,n,d,bound'")
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = [c.strip() for c in line.split(",")]
        if len(parts) != 4:
            raise ExternalBoundsError(f"line {lineno}: expected 4 fields")
        try:
            q, n, d, bound = (int(p) for p in parts)
        except ValueError as exc:
            raise ExternalBoundsError(f"line {lineno}: non-integer field") from exc
        if q < 2 or n < 1 or d < 1 or bound < 1:
            raise ExternalBoundsError(f"line {lineno}: values out of range")
        if (q, n, d) in rows:
            raise ExternalBoundsError(f"line {lineno}: repeated (q, n, d) = {(q, n, d)}")
        rows[(q, n, d)] = bound
    return rows


@dataclass(frozen=True)
class BoundEntry:
    method: str
    value: int | None
    note: str = ""
    certificate: tuple = ()


@dataclass(frozen=True)
class BoundReport:
    """Per-method upper bounds plus the aggregated best value."""

    status: BoundStatus
    entries: tuple[BoundEntry, ...]

    @property
    def best(self) -> int | None:
        return self.status.hi


# the order in which tied methods are listed, in reports and table tags alike
_TIE_ORDER = ("ext", "dd", "d2", "sc", "lp", "plotkin")


def best_upper_bound(
    params: TwoDistParams, external: dict[tuple[int, int, int], int] | None = None
) -> BoundReport:
    """Aggregate all applicable upper-bound methods for one parameter set.

    Exact special values and not-well-defined cases short-circuit the
    aggregation.  The Gray-Rankin value is reported for reference but is
    excluded from the minimum, being valid for antipodal codes only.  The
    methods that attain the minimum are listed in `_TIE_ORDER`.
    """
    special = feasibility.special_values(params)
    if special is not None:  # both exact families are realizable
        return BoundReport(special, ())
    if not feasibility.two_distance_realizable(params):
        status = BoundStatus.not_well_defined(note="no three-word code realizes both distances")
        return BoundReport(status, ())

    opt, vertex = lp_optimum(params)
    entries = [BoundEntry("lp", math.floor(opt), certificate=(vertex,))]
    pk = plotkin_bound(params)
    entries.append(BoundEntry("plotkin", pk, note="" if pk is not None else "not applicable"))
    d2 = d2_bound(params)
    if d2 is None:
        entries.append(BoundEntry("d2", None, note="not applicable"))
    else:
        entries.append(BoundEntry("d2", d2.value, certificate=(d2.exact, d2.strict)))
        # dd_refine would find this itself; testing here spares it a second d2 on every other cell
        if d2.strict and d2.attains_integer:
            refined = dd_refine(params)
            if refined < d2.value:
                entries.append(BoundEntry("dd", refined, note="distribution refutation"))
    sb = sphere_bound(params)
    entries.append(
        BoundEntry(
            "sc",
            sb.value,
            note="" if sb.value is not None else "not applicable",
            certificate=((sb.r, sb.s),),
        )
    )
    gr = gray_rankin_bound(params.q, params.n, params.d)
    entries.append(BoundEntry("gr", gr, note="antipodal codes only; not aggregated"))
    if external is not None:
        ext = external.get((params.q, params.n, params.d))
        if ext is not None:
            entries.append(BoundEntry("ext", ext))

    candidates = [
        (e.value, e.method) for e in entries if e.value is not None and e.method != "gr"
    ]
    best = min(v for v, _ in candidates)
    methods = tuple(sorted((m for v, m in candidates if v == best), key=_TIE_ORDER.index))
    status = BoundStatus.range_(1, best, methods=methods)
    return BoundReport(status, tuple(entries))
