"""Necessary-condition screens for two-weight code parameters.

Every screen is pure arithmetic over exact integers and rationals: a
failing screen proves no code with the queried parameters exists, a
passing screen says nothing beyond "not refuted".  The screens never
reject the parameters of a code that actually exists: the tests check
`linear_screens` on every linear two-weight code with small point
multiplicities over PG(k-1, q), at its own s and with s left out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import BoundStatus, TwoDistParams
from .fields import p_adic_valuation, prime_power


@dataclass(frozen=True)
class LinearParams:
    """Parameters [n, k, {w1, w2}]_q of a linear two-weight code.

    `s` is the maximal number of generator columns that are scalar
    multiples of one column (1 for projective codes).  Given, it is the
    only candidate; left None, every s with n_c >= 0, d_c >= 0 and, for
    k >= 2, s <= n - w1 is one.  A screen that fails at one candidate
    while another survives reads `exclude` (see `linear_screens`).
    """

    q: int
    k: int
    n: int
    w1: int
    w2: int
    s: int | None = None

    def __post_init__(self):
        if prime_power(self.q) is None:
            raise ValueError(f"q={self.q} is not a prime power")
        if self.k < 1 or self.n < 1:
            raise ValueError("k and n must be positive")
        if not (0 < self.w1 < self.w2 <= self.n):
            raise ValueError("need 0 < w1 < w2 <= n")
        if self.s is not None:
            if self.s < 1:
                raise ValueError("s must be positive")
            if self.n * (self.q - 1) > self.s * (self.q**self.k - 1):
                raise ValueError("n exceeds s*(q^k-1)/(q-1)")

    @property
    def p(self) -> int:
        return prime_power(self.q)[0]

    @property
    def delta(self) -> int:
        return self.w2 - self.w1


# ---------------------------------------------------------------------------
# weight shape w1 = h p^u, w2 = (h+1) p^u


@dataclass(frozen=True)
class DelsarteForm:
    p: int
    u: int
    h: int


def delsarte_form(q: int, w1: int, w2: int) -> DelsarteForm | None:
    """Factor the weights as w1 = h*p^u, w2 = (h+1)*p^u, or None.

    Necessary for projective two-weight codes: the gap w2 - w1 must be a
    power of p dividing w1.
    """
    pm = prime_power(q)
    if pm is None:
        raise ValueError(f"q={q} is not a prime power")
    if not (0 < w1 < w2):
        raise ValueError("need 0 < w1 < w2")
    p, gap = pm[0], w2 - w1
    u = p_adic_valuation(p, gap)
    if p**u != gap or w1 % gap:
        return None
    return DelsarteForm(p=p, u=u, h=w1 // gap)


# ---------------------------------------------------------------------------
# weight multiplicities from the first MacWilliams power moments


@dataclass(frozen=True)
class MacWilliamsResult:
    status: str  # "ok" | "infeasible" | "degenerate"
    mu1: Fraction
    mu2: Fraction
    second_moment_residual: Fraction


def macwilliams_mu(lp: LinearParams) -> MacWilliamsResult:
    """Solve for weight multiplicities (mu1, mu2) of a linear two-weight code.

    Uses w1*mu1 + w2*mu2 = n(q-1)q^(k-1) together with
    mu1 + mu2 = q^k - 1.  "infeasible" when the solution is not a pair of
    nonnegative integers, "degenerate" when one multiplicity vanishes
    (the code would be equidistant).  The residual of the second power
    moment (which must vanish for projective codes) is reported as well.
    """
    q, k, n, w1, w2 = lp.q, lp.k, lp.n, lp.w1, lp.w2
    total = q**k - 1
    rhs1 = n * (q - 1) * q ** (k - 1)
    mu2 = Fraction(rhs1 - w1 * total, w2 - w1)
    mu1 = total - mu2
    rhs2 = Fraction(n * (q - 1) * (n * (q - 1) + 1)) * Fraction(q) ** (k - 2)
    residual = w1 * w1 * mu1 + w2 * w2 * mu2 - rhs2
    if mu1 < 0 or mu2 < 0 or mu1.denominator != 1 or mu2.denominator != 1:
        status = "infeasible"
    elif mu1 == 0 or mu2 == 0:
        status = "degenerate"
    else:
        status = "ok"
    return MacWilliamsResult(status, mu1, mu2, residual)


# ---------------------------------------------------------------------------
# strongly regular graph parameters and multiplicity integrality


@dataclass(frozen=True)
class SrgParams:
    """Parameters of the graph on codewords with adjacency at distance w1."""

    n_vertices: int
    degree: int
    lam: int
    mu: int
    e1: Fraction
    e2: Fraction
    multiplicities_integral: bool
    counting_identity_ok: bool

    @property
    def feasible(self) -> bool:
        return self.multiplicities_integral and self.counting_identity_ok

    @property
    def params(self) -> tuple[int, int, int, int]:
        return (self.n_vertices, self.degree, self.lam, self.mu)


def srg_analysis(lp: LinearParams) -> SrgParams:
    """Strongly-regular-graph integrality screen for projective parameters.

    A projective two-weight code induces a strongly regular graph on its
    q^k words with adjacency at distance w1.  The derived (N, K, lam, mu)
    must have nonnegative lam, mu (raised otherwise), integral eigenvalue
    multiplicities, and satisfy K(K - lam - 1) = (N - K - 1) mu.

    With N = q^k, K = n(q-1) and delta = w2 - w1, four identities in q, k,
    n, w1 and w2 tie the graph to the first two MacWilliams moments, so
    the screen reads `macwilliams_mu` instead of recomputing them:
    - the eigenvalue multiplicities from the eigenvalue ratio,
      1/2(N - 1 -+ (2K + (N-1)(lam-mu)) / (q delta)), are (mu1, mu2);
    - the weight counts (A_w1, A_w2) that the parameters force are the
      same two numbers;
    - the discriminant (lam-mu)^2 + 4(K-mu) is (q delta)^2, so the
      eigenvalues n(q-1) - q w1 and n(q-1) - q w2 are always rational;
    - K(K - lam - 1) - (N - K - 1) mu is q^2 times the second-moment
      residual, so the counting identity holds when the residual is 0.
      The strength-2 orthogonal-array quadratic n^2 - n(Q1(u1+u2-1) + 1)
      + Q2 u1 u2 (u_i = n - w_i, Q1 = q(N-q)/(N-q^2), Q2 = q^2(N-1)/(N-q^2))
      is -q^2/(q^k - q^2) times it, so this screen covers it at k >= 3.
    """
    if lp.k < 2:
        raise ValueError("srg_analysis needs k >= 2")
    if lp.s not in (None, 1):
        raise ValueError("srg_analysis applies to projective parameters (s = 1)")
    q, k, n, w1, w2 = lp.q, lp.k, lp.n, lp.w1, lp.w2
    big_n = q**k
    big_k = n * (q - 1)
    lam = big_k * (big_k + 3) - q * (w1 + w2) * (big_k + 1) + q * q * w1 * w2
    mu = big_k * (big_k + 1) - big_k * q * (w1 + w2) + q * q * w1 * w2
    if lam < 0 or mu < 0:
        raise ValueError(f"lam={lam}, mu={mu}: parameters cannot form a graph")
    mw = macwilliams_mu(lp)
    return SrgParams(
        n_vertices=big_n,
        degree=big_k,
        lam=lam,
        mu=mu,
        e1=mw.mu1,
        e2=mw.mu2,
        multiplicities_integral=mw.status != "infeasible",
        counting_identity_ok=mw.second_moment_residual == 0,
    )


# ---------------------------------------------------------------------------
# complementary code parameters and the candidate column multiplicities


@dataclass(frozen=True)
class ComplementaryParams:
    s: int
    n_c: int
    d_c: int
    degenerate: bool  # d_c = 0 or n_c = 0: complementary collapses


_NO_S_FITS = "no column multiplicity s fits: n_c >= 0, d_c >= 0, s <= n - w1 (k >= 2)"


def complementary_params(lp: LinearParams) -> tuple[ComplementaryParams, ...]:
    """The complementary code's parameters at every column multiplicity s that fits.

    s fits when n_c = s(q^k-1)/(q-1) - n >= 0, d_c = s q^(k-1) - w2 >= 0
    and, for k >= 2, s <= n - w1: a hyperplane through a point of
    multiplicity s holds the columns of a nonzero word of weight at most
    n - s.  The only candidate is lp.s when it is given, else every
    s = 1..n (no point holds more than n columns) that fits; `()` when
    none does.  The weight multiplicities swap between the two codes.
    """
    q, k, n = lp.q, lp.k, lp.n
    points = (q**k - 1) // (q - 1)
    top = n - lp.w1 if k >= 2 else n
    out = []
    for s in range(1, top + 1) if lp.s is None else (lp.s,):
        n_c, d_c = s * points - n, s * q ** (k - 1) - lp.w2
        if n_c >= 0 and d_c >= 0 and s <= top:
            out.append(ComplementaryParams(s, n_c, d_c, degenerate=n_c == 0 or d_c == 0))
    return tuple(out)


# ---------------------------------------------------------------------------
# gcd / valuation conditions


@dataclass(frozen=True)
class ClauseVerdict:
    """One clause's outcome; `passed` is None when the clause does not apply."""

    clause: str
    passed: bool | None
    detail: str = ""


@dataclass(frozen=True)
class GcdVerdict:
    s: int
    n_c: int
    d_c: int
    clauses: tuple[ClauseVerdict, ...]
    verdict: str  # "pass" | "fail" | "abstain"


@dataclass(frozen=True)
class GcdScreen:
    per_s: tuple[GcdVerdict, ...]

    @property
    def any_admissible(self) -> bool:
        """True when some candidate s is not refuted."""
        return any(v.verdict != "fail" for v in self.per_s)


def gcd_screen(lp: LinearParams) -> GcdScreen:
    """Divisibility conditions linking d, delta and the complementary d_c.

    With d = w1, gamma_* the p-adic valuations and (n_c, d_c) the
    complementary parameters, a projective (s = 1) linear two-weight code
    satisfies, clause by clause:

      (i)   k >= 4 and delta > 1: gcd(q,d) = gcd(q,delta) and, when the
            complement is nondegenerate (n_c > 0 and d_c > 0),
            gcd(q,d_c) = gcd(q,delta);
      (ii)  k = 3: gcd(q,d) = gcd(q,delta) or gcd(q,d_c) = gcd(q,delta),
            provided gcd(d,q)^2 <= q*gcd(n(n-1),q) or
            gcd(d+delta,q)^2 > q*gcd(n_c(n_c-1),q).  Like (iii) the
            condition is a disjunction, symmetric under complementation:
            the hyperoval [6,3,{4,6}]_4 and its complement [15,3,{10,12}]_4
            each satisfy only one of the two equalities;
      (iii) k >= 2: gamma_d = gamma_delta or gamma_c = gamma_delta, where
            gamma_c is undefined, so that side fails, when d_c = 0.

    The clauses are stated for projective codes, so at s > 1 the screen
    abstains (for k = 2, codes with repeated columns exist for every
    delta).  One verdict is reported per candidate s (see
    `complementary_params`); the parameters are refuted only if every
    candidate fails.
    """
    if lp.k < 2:
        raise ValueError("gcd screen needs k >= 2")
    q, k, n, d, delta, p = lp.q, lp.k, lp.n, lp.w1, lp.delta, lp.p
    gamma_d, gamma_delta = p_adic_valuation(p, d), p_adic_valuation(p, delta)
    gd, gdel = math.gcd(q, d), math.gcd(q, delta)
    verdicts = []
    for c in complementary_params(lp):
        if c.s > 1:
            clause = ClauseVerdict("abstain", None, f"k = {k} with repeated columns")
            verdicts.append(GcdVerdict(c.s, c.n_c, c.d_c, (clause,), "abstain"))
            continue
        clauses = []
        gdc = math.gcd(q, c.d_c)
        if k >= 4 and delta == 1:
            clauses.append(ClauseVerdict("i", None, "delta = 1"))
        elif k >= 4:
            ok = gd == gdel and (c.degenerate or gdc == gdel)
            checked = "" if c.degenerate else f", (q,d_c)={gdc}"
            clauses.append(ClauseVerdict("i", ok, f"(q,d)={gd}, (q,delta)={gdel}{checked}"))
        if k == 3:
            cond1 = gd * gd <= q * math.gcd(n * (n - 1), q)
            cond2 = math.gcd(q, d + delta) ** 2 > q * math.gcd(c.n_c * (c.n_c - 1), q)
            if cond1 or cond2:
                ok = gd == gdel or gdc == gdel
                fired = "first" if cond1 else "second"
                clauses.append(ClauseVerdict("ii", ok, f"{fired} condition fired"))
            else:
                clauses.append(ClauseVerdict("ii", None, "neither condition fired"))
        gamma_c = p_adic_valuation(p, c.d_c)
        ok = gamma_d == gamma_delta or gamma_c == gamma_delta
        detail = f"gamma_d={gamma_d}, gamma_delta={gamma_delta}, gamma_c={gamma_c}"
        clauses.append(ClauseVerdict("iii", ok, detail))
        passed = all(clause.passed is not False for clause in clauses)
        verdicts.append(GcdVerdict(c.s, c.n_c, c.d_c, tuple(clauses), "pass" if passed else "fail"))
    return GcdScreen(tuple(verdicts))


# ---------------------------------------------------------------------------
# every linear screen, with one rule for the candidate column multiplicities


@dataclass(frozen=True)
class ScreenLine:
    screen: str
    verdict: str  # "pass" | "fail" | "exclude" | "skip" | "degenerate" | "abstain"
    detail: str


@dataclass(frozen=True)
class LinearScreens:
    lines: tuple[ScreenLine, ...]
    refuted: bool


def linear_screens(lp: LinearParams) -> LinearScreens:
    """Every linear screen's lines on `lp`, and whether they refute it.

    The candidates are the column multiplicities s that fit the
    parameters (`complementary_params`).  `delsarte-form`,
    `srg-integrality` and the gcd clauses hold for projective codes only,
    so they run at s = 1 alone, and only when 1 is a candidate; otherwise
    they report `skip`, saying so when s = 1 does not fit, whether it was
    given or s was left out.
    `gcd-valuation` reports one line per candidate, except that it
    abstains at every s > 1 and reports those candidates, a range since
    the bounds on s are an interval, in one line when there are several.
    A screen that fails at s excludes that candidate.  The parameters
    are refuted when `macwilliams-mu` is infeasible, no candidate fits,
    or every candidate is excluded; a failing line then reads `fail`,
    and otherwise `exclude`.
    """
    candidates = complementary_params(lp)
    projective = any(c.s == 1 for c in candidates)
    no_s1 = "s=1 does not fit" if lp.s in (None, 1) else None
    rows = []  # (screen, verdict, detail, the s a failure excludes, if any)

    def add(screen, verdict, detail, s=None):
        rows.append((screen, verdict, detail, s))

    if not projective:
        add("delsarte-form", "skip", no_s1 or "projective screen needs s=1")
    elif (form := delsarte_form(lp.q, lp.w1, lp.w2)) is None:
        add("delsarte-form", "fail", "weights are not h*p^u, (h+1)*p^u", 1)
    else:
        add("delsarte-form", "pass", f"p={form.p} u={form.u} h={form.h}")

    mw = macwilliams_mu(lp)
    detail = f"mu1={mw.mu1} mu2={mw.mu2} second-moment-residual={mw.second_moment_residual}"
    add("macwilliams-mu", {"ok": "pass", "infeasible": "fail"}.get(mw.status, mw.status), detail)

    if projective:  # at k = 1 the one candidate is s = n > 1, so s = 1 needs k >= 2
        try:
            srg = srg_analysis(lp)
            detail = f"(N,K,lam,mu)={srg.params} e1={srg.e1} e2={srg.e2}"
            add("srg-integrality", "pass" if srg.feasible else "fail", detail, 1)
        except ValueError as exc:
            add("srg-integrality", "fail", str(exc), 1)
    else:
        add("srg-integrality", "skip", no_s1 or "projective screen needs s=1 and k>=2")

    if lp.k < 2:
        add("gcd-valuation", "skip", "needs k >= 2")
    elif not candidates:
        add("gcd-valuation", "skip", "no candidate s")
    else:
        per_s = gcd_screen(lp).per_s
        abstains = [v for v in per_s if v.verdict == "abstain"]
        if len(abstains) > 1:
            per_s = [v for v in per_s if v.verdict != "abstain"]
        for v in per_s:
            clause_bits = "; ".join(
                f"({c.clause}) {'pass' if c.passed else 'fail' if c.passed is False else 'n/a'}"
                + (f": {c.detail}" if c.detail else "")
                for c in v.clauses
            )
            add("gcd-valuation", v.verdict, f"s={v.s} d_c={v.d_c} n_c={v.n_c} {clause_bits}", v.s)
        if len(abstains) > 1:
            (clause,) = abstains[0].clauses
            add("gcd-valuation", "abstain",
                f"s={abstains[0].s}..{abstains[-1].s} (abstain) n/a: {clause.detail}")

    if candidates:
        detail = "; ".join(
            f"s={c.s}: n_c={c.n_c} d_c={c.d_c}" + (" (degenerate)" if c.degenerate else "")
            for c in candidates
        )
        add("complementary-params", "pass", detail)
    else:
        add("complementary-params", "fail", _NO_S_FITS)

    excluded = {s for _, verdict, _, s in rows if verdict == "fail"}
    refuted = mw.status == "infeasible" or all(c.s in excluded for c in candidates)
    failed = "fail" if refuted else "exclude"
    lines = tuple(ScreenLine(name, failed if v == "fail" else v, text) for name, v, text, _ in rows)
    return LinearScreens(lines, refuted)


# ---------------------------------------------------------------------------
# exact small values, impossibility clauses, and the 3-word realizability test


def special_values(params: TwoDistParams) -> BoundStatus | None:
    """Exact values and impossibility clauses for special parameter shapes, else None.

    Binary clauses (a)-(e) rule the pair out entirely; d odd with
    delta = d has the exact value 1 + floor(n/d), at least 4 (below five
    words the extremal configuration degenerates); ternary distances
    {1, 3} pin the value at 6 once n >= 4.
    """
    q, n, d, delta = params.q, params.n, params.d, params.delta
    e = d + delta
    if q == 2:
        if d % 2 and e % 2:
            return BoundStatus.not_well_defined("both distances odd")  # (a)
        if d % 2 and e % 2 == 0:
            if 2 * n < 3 * d - delta:
                return BoundStatus.not_well_defined("length below (3d-delta)/2")  # (b)
            if d < delta:
                return BoundStatus.not_well_defined("odd d smaller than delta")  # (c)
        if e == n and n != 2 * d:
            return BoundStatus.not_well_defined("full-length distance with n != 2d")  # (d)
        if e == n - 1 and 2 * d > n + 1:
            return BoundStatus.not_well_defined("distance n-1 with 2d > n+1")  # (e)
        if d % 2 and delta == d:
            return BoundStatus.exact(max(4, 1 + n // d), note="disjoint supports")
    if q == 3 and d == 1 and delta == 2 and n >= 4:
        return BoundStatus.exact(6)
    return None


def two_distance_realizable(params: TwoDistParams) -> bool:
    """Decide whether any code with both distances d and d+delta exists.

    Translating a codeword to zero, a code showing both distances always
    contains a three-word witness {0, x, y} whose pairwise distances lie
    in {d, d+delta} and cover both.  Witness existence reduces to pure
    arithmetic over the weights a, b of x, y, their support overlap c,
    and (for q >= 3) the number of overlap positions where the nonzero
    symbols differ.
    """
    q, n, d, delta = params.q, params.n, params.d, params.delta
    e = d + delta
    for a in (d, e):
        for b in (d, e):
            for c in range(max(0, a + b - n), min(a, b) + 1):
                lo = a + b - 2 * c
                hi = lo + (c if q >= 3 else 0)
                for dist, other in ((d, e), (e, d)):
                    if lo <= dist <= hi and other in (a, b):
                        return True
    return False
