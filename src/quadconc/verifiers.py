"""One executable check per geometric claim.

Every verifier consumes a finished :class:`~quadconc.configuration.Configuration`
and returns a :class:`Verdict`; none of them recomputes construction
points, so a construction bug cannot be masked by a matching verifier
bug.  Formula sides are evaluated from the ratio fields ``m n p q``,
``gamma`` and ``r`` alone, while geometry sides use only incidence
determinants and directed ratios of stored points: the two routes are
disjoint and must agree exactly.

The checks read the configuration's slot triples (``cfg.triples``)
through tables of slots compiled from their point names at import.  An
incidence of a concurrence check is the dot product of the line ``uv``,
the cross product ``u x v`` of two stored triples, with the stored point
``x`` (the line passes through ``x`` when it vanishes), so no verifier
reuses a construction line.  Each check forms each of its distinct lines
once, from a table built at import (``_incidences``), and the lines that
miss are told apart by their reduced cross products.  A collinearity
check is ``det3`` of three stored triples.  Coincidence is tuple ``==``
and idealness ``w == 0``.  A verdict's witnesses are canonical triples
too, and no check makes a :class:`~quadconc.kernel.Point`: the text of a
point that left its carrier line is ``kernel.parameter_error``'s, written
from the triples.

Each ratio field is a lowest-terms pair, written ``(ma, mb)`` for ``m``
and likewise ``n p q``, ``gamma = G/H`` (product one is ``G == H``) and
``r = R/S``.  Each distinct formula side of the paper is one module-level
function from ratio pairs to a pair, with the paper's form in its
docstring, and uses only ``+``, ``-`` and ``*``.  Every value stays an
integer ``(num, den)`` pair, the geometric ones from the kernel's
``parameter_pair``, or ``parameter_pairs`` for several points of one
carrier line: two sides are equal when they cross-multiply equal,
and an order is decided by cross-multiplied ``<`` once each denominator is
made positive.  The checks decide and do not write: a verdict's
``exact_values`` hold pairs, a geometric value that equals its formula
side (or the product that equals ``gamma``) under the formula's pair and
only a mismatched one under its own, and ``report`` writes them.  So the
identity checks run unchanged on pairs of polynomials, which
``tests/test_proofs.py`` uses to prove them.  No verifier makes a
``Fraction``.

Each claim is one row of :data:`CLAIMS`.  A configuration outside the
row's regime (wrong ratio product, wrong shape class) gets a ``skipped``
verdict, which is never a failure (made once, at import, where the skip
text names no value; a product-one row's skip text ends in the stored
``gamma``, written by ``kernel.reduced_text``).  Past that, a check
collects failures and reasons in one vocabulary, also the builder's flag
vocabulary, and reads no flag (``cfg.degeneracies``): ``_finite`` gives
``<point>_UNDEFINED`` or ``<point>_IDEAL``; ``_concurrent_through`` gives
``<line>_UNDEFINED`` (a line through an undefined point, two equal points
or two ideal ones) or ``<line> misses <point>``; ``_identity`` gives
``<key>_formula_UNDEFINED``, ``<key>_UNDEFINED`` or ``<key> mismatch`` for
the exact value ``key``.  Any failure fails the claim, else any reason
makes it ``degenerate`` (``_verdict``); the two sign claims add their own
texts past ``_finite``.  Each row also declares every point its
check reads (``r`` is read through ``R``): ``counterexample`` builds a
candidate with the construction plan of its target's read set, where
every other constructed point is ``None``.
"""

from __future__ import annotations

from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from ._purekernel import det3, reduce3
from .configuration import CONVEX, DIAGONAL_PAIRS, E_LINE_PAIRS, SLOT, Configuration, Triple
from .errors import select
from .kernel import (
    DEGENERATE as DEGENERATE_SHAPE,
    Pair,
    classify_triples,
    parameter_error,
    parameter_pair,
    parameter_pairs,
    reduced_text,
)

PASS = "pass"
FAIL = "fail"
DEGENERATE = "degenerate"
SKIPPED = "skipped"

# one shared read-only empty mapping, so no verdict writes into another's
_EMPTY: Mapping = MappingProxyType({})


class Verdict(NamedTuple):
    """Outcome of one claim on one configuration, with exact witnesses."""

    claim_id: str
    status: str
    detail: str = ""
    witness: Mapping[str, Triple] = _EMPTY
    # each value's exact (num, den) pair, which ``report`` writes
    exact_values: Mapping[str, Pair] = _EMPTY


def _b01(flag: bool) -> Pair:
    return (1, 1) if flag else (0, 1)


def _slots(*names: str) -> Callable[[tuple], tuple]:
    """Reads the triples of two or more ``names`` from ``cfg.triples``."""
    return itemgetter(*(SLOT[name] for name in names))


def _split(lam: Optional[Pair], reverse: bool = False) -> Optional[Pair]:
    """The directed ratio in which the point at parameter ``lam`` on ``a -> b``
    splits ``a -> b``, or with ``reverse`` splits ``b -> a``, as a pair;
    ``None`` where ``lam`` is ``None`` or the point is the far end."""
    if lam is None:
        return None
    num, den = lam
    ratio = (den - num, num) if reverse else (num, den - num)
    return ratio if ratio[1] else None


def _ratio(ta: Optional[Triple], tp: Optional[Triple], tb: Optional[Triple]) -> Optional[Pair]:
    """The directed ratio in which ``tp`` splits ``ta -> tb`` as a pair, or
    ``None`` where a triple is undefined or ``directed_ratio`` would raise."""
    return None if ta is None or tb is None else _split(parameter_pair(ta, tb, tp))


def _equal(u: Pair, v: Pair) -> bool:
    """``u[0]/u[1] == v[0]/v[1]``; the denominators are nonzero, of either sign."""
    return u[0] * v[1] == v[0] * u[1]


def _finite(name: str, t: Optional[Triple], reasons: list[str]) -> bool:
    """Whether ``t``, the triple of the point ``name``, is a finite point; if
    not, adds ``<name>_UNDEFINED`` or ``<name>_IDEAL`` to ``reasons``.  Called
    on several points in a list, not a generator, so each one is named."""
    if t is None:
        reasons.append(name + "_UNDEFINED")
        return False
    if t[2] == 0:
        reasons.append(name + "_IDEAL")
        return False
    return True


def _incidences(*points: tuple[str, tuple[tuple[str, str, str], ...]]) -> tuple:
    """The table of ``_concurrent_through`` for ``points``, each a name and its
    lines ``(label, u, v)``: the slot pairs of the distinct lines, in order of
    first use, and per point its name, slot and lines ``(label, pair index)``."""
    pairs = tuple(dict.fromkeys((SLOT[u], SLOT[v]) for _, uvs in points for _, u, v in uvs))
    return pairs, tuple((name, SLOT[name], tuple((label, pairs.index((SLOT[u], SLOT[v])))
                                                 for label, u, v in uvs)) for name, uvs in points)


def _concurrent_through(t: tuple, table: tuple, reasons: list[str], failures: list[str]) -> None:
    """Check that each point of the ``_incidences`` table lies on its lines,
    each formed once from the triples ``t`` as ``u x v``; an undefined point
    is checked on no line.  A line equal to an earlier one misses exactly
    when that one does, so only the lines that miss a point are compared,
    by their reduced cross products, and each distinct one is named once.
    Never vacuous: a defined point is the meet of two distinct lines, both
    among its lines."""
    pairs, points = table
    lines: list[Optional[Triple]] = []
    for su, sv in pairs:
        u, v = t[su], t[sv]
        if u is None or v is None or u == v or (u[2] == 0 and v[2] == 0):
            lines.append(None)
            continue
        ux, uy, uw = u
        vx, vy, vw = v
        lines.append((uy * vw - uw * vy, uw * vx - ux * vw, ux * vy - uy * vx))
    for name, x, indexed in points:
        target = t[x]
        _finite(name, target, reasons)
        if target is None:
            continue
        missed: list[Triple] = []
        tx, ty, tw = target
        for label, i in indexed:
            line = lines[i]
            if line is None:
                reasons.append(label + "_UNDEFINED")
                continue
            lx, ly, lw = line
            if lx * tx + ly * ty + lw * tw and (reduced := reduce3(lx, ly, lw)) not in missed:
                missed.append(reduced)
                failures.append(f"{label} misses {name}")


def _identity(key: str, formula: Pair, geometric: Optional[Pair], values: dict,
              reasons: list[str], failures: list[str]) -> None:
    """Compare the geometric ratio ``key`` with its formula side: a formula with
    a vanishing denominator gives ``<key>_formula_UNDEFINED``, else it is stored
    as ``<key>_formula``; an undefined ratio gives ``<key>_UNDEFINED``, an equal
    one is stored as the formula's pair and a mismatched one as its own."""
    if formula[1] == 0:
        reasons.append(key + "_formula_UNDEFINED")
        return
    values[key + "_formula"] = formula
    if geometric is None:
        reasons.append(key + "_UNDEFINED")
    elif geometric[0] * formula[1] == formula[0] * geometric[1]:
        values[key] = formula
    else:
        values[key] = geometric
        failures.append(key + " mismatch")


def _verdict(claim: str, reasons: list[str], failures: list[str], values: Mapping = _EMPTY,
             witness: Mapping = _EMPTY) -> Verdict:
    """Any failure fails the claim, else any reason makes it degenerate.  A
    pass, the common case, is built positionally, past ``Verdict.__new__``."""
    if failures:
        return Verdict(claim, FAIL, "; ".join(failures), witness, values)
    if reasons:
        return Verdict(claim, DEGENERATE, "; ".join(reasons), witness, values)
    return tuple.__new__(Verdict, (claim, PASS, "", witness, values))


def _diagonal_form(m: Pair, n: Pair, p: Pair) -> Pair:
    """``m(1 + np)/(1 + mn)``: ``FE/EG`` and ``F1M1/M1G1``."""
    (ma, mb), (na, nb), (pa, pb) = m, n, p
    return ma * (nb * pb + na * pa), pb * (mb * nb + ma * na)


def _section_form(m: Pair, n: Pair, p: Pair) -> Pair:
    """``mn(p+1)/(m+1)``: ``MM1/M1P``, and the other three sections on the
    rotated fields."""
    (ma, mb), (na, nb), (pa, pb) = m, n, p
    return ma * na * (pa + pb), nb * pb * (ma + mb)


def _crossing_form(q: Pair, m: Pair, n: Pair) -> Pair:
    """``(1/q)(1/(m+1)) + n(m/(m+1))``: ``ME/EP`` at product one, and
    ``NE/EQ`` on ``(m, n, p)``."""
    (qa, qb), (ma, mb), (na, nb) = q, m, n
    return qb * mb * nb + na * ma * qa, qa * nb * (ma + mb)


def _trace_form(m: Pair, n: Pair, p: Pair, gamma: Pair, r: Pair) -> Pair:
    """``mn(p+1)/(m+1) * (r+m)/(gamma*r + m)``: ``ME/EP`` in the trace
    ratio ``r``."""
    (ma, mb), (G, H), (R, S) = m, gamma, r
    num, den = _section_form(m, n, p)
    return num * (R * mb + ma * S) * H, den * (G * R * mb + ma * H * S)


_XOZYT_NAMES = ("X", "O", "Z", "Y", "T")
_XOZYT = _slots(*_XOZYT_NAMES)


def _diagonal_collinearity(claim: str, cfg: Configuration) -> Verdict:
    """``X O Z`` and ``Y O T`` are collinear triples (product-one regime)."""
    points = X, O, Z, Y, T = _XOZYT(cfg.triples)
    reasons: list[str] = []
    if not all([_finite(name, x, reasons) for name, x in zip(_XOZYT_NAMES, points)]):
        return _verdict(claim, reasons, [])
    c1, c2 = not det3(X, O, Z), not det3(Y, O, T)
    values = {"X_O_Z_collinear": _b01(c1), "Y_O_T_collinear": _b01(c2)}
    failures = [text for ok, text in ((c1, "XZ misses O"), (c2, "YT misses O")) if not ok]
    return _verdict(claim, reasons, failures, values, {"O": O})


_SEVEN = _slots("F1", "G1", "F2", "G2", "E")
_SEVEN_LINES = _incidences(("E", tuple((u + v, u, v) for u, v in E_LINE_PAIRS)
                                  + (("FG", "F1", "G1"),)))


def _seven_lines(claim: str, cfg: Configuration) -> Verdict:
    """The two diagonal division points coincide pairwise and all seven
    lines ``AA1 BB1 CC1 DD1 MP NQ FG`` pass through ``E`` (product-one
    regime); also checks the division ratio of ``E`` on ``FG``."""
    reasons: list[str] = []
    failures: list[str] = []
    values: dict[str, Pair] = {}
    t = cfg.triples
    F, G, F2, G2, E = _SEVEN(t)
    for key, u, v in (("F1_equals_F2", F, F2), ("G1_equals_G2", G, G2)):
        if u is None or v is None:
            reasons.append(key + "_UNDEFINED")
        else:
            values[key] = _b01(u == v)
            if u != v:
                failures.append(key + " mismatch")
    _concurrent_through(t, _SEVEN_LINES, reasons, failures)
    m, n, p, _, _ = cfg.ratios
    _identity("FE_over_EG", _diagonal_form(m, n, p), _ratio(F, E, G), values, reasons, failures)
    return _verdict(claim, reasons, failures, values, {"E": E} if E is not None else _EMPTY)


_EMPNQ = _slots("E", "M", "P", "N", "Q")


def _crossing_ratios(claim: str, cfg: Configuration) -> Verdict:
    """Closed forms for ``ME/EP`` and ``NE/EQ`` in the product-one regime."""
    E, M, P, N, Q = _EMPNQ(cfg.triples)
    m, n, p, q, _ = cfg.ratios
    reasons: list[str] = []
    failures: list[str] = []
    values: dict[str, Pair] = {}
    _finite("E", E, reasons)
    _identity("ME_over_EP", _crossing_form(q, m, n), _ratio(M, E, P), values, reasons, failures)
    _identity("NE_over_EQ", _crossing_form(m, n, p), _ratio(N, E, Q), values, reasons, failures)
    return _verdict(claim, reasons, failures, values, {"E": E} if E is not None else _EMPTY)


_A_C_E_C1 = _slots("A", "C", "E", "C1")


def _diagonal_concurrence_iff(claim: str, cfg: Configuration) -> Verdict:
    """``MP NQ AC`` are concurrent exactly when ``DM BQ AC`` are
    (product-one regime): both reduce to an incidence with line ``AC``."""
    A, C, E, C1 = _A_C_E_C1(cfg.triples)
    reasons: list[str] = []
    if not all([_finite("E", E, reasons), _finite("C1", C1, reasons)]):
        return _verdict(claim, reasons, [])
    e_on, c_on = not det3(A, C, E), not det3(A, C, C1)
    values = {"MP_NQ_AC_concurrent": _b01(e_on), "DM_BQ_AC_concurrent": _b01(c_on)}
    failures = [] if e_on == c_on else ["AC misses " + ("C1" if e_on else "E")]
    return _verdict(claim, reasons, failures, values)


# each inner point, the diagonal division pair whose line passes through
# it, and the three other lines of its quadruple
_QUADRUPLES = tuple(zip(("M1", "N1", "P1", "Q1"), DIAGONAL_PAIRS, (
    (("D", "D1"), ("A", "A1"), ("M", "P")),
    (("A", "A1"), ("B", "B1"), ("N", "Q")),
    (("B", "B1"), ("C", "C1"), ("M", "P")),
    (("C", "C1"), ("D", "D1"), ("N", "Q")),
)))

# the four inner points on their 10 distinct lines
_QUADRUPLE_LINES = _incidences(*[(x, tuple((u + v, u, v) for u, v in (uv,) + cevians))
                                 for x, uv, cevians in _QUADRUPLES])
_F1_G1_M1 = _slots("F1", "G1", "M1")


def _quadruple_concurrences(claim: str, cfg: Configuration) -> Verdict:
    """Each of the four line quadruples meets in its stored point, at any
    ratio product; the line through a coincident diagonal division pair is
    undefined, and the remaining three must still concur.  Also checks the
    division ratio of ``M1`` on ``F1 G1``."""
    reasons: list[str] = []
    failures: list[str] = []
    values: dict[str, Pair] = {}
    t = cfg.triples
    _concurrent_through(t, _QUADRUPLE_LINES, reasons, failures)
    witness = {name: t[x] for name, x, _ in _QUADRUPLE_LINES[1] if t[x] is not None}
    F1, G1, M1 = _F1_G1_M1(t)
    m, n, p, _, _ = cfg.ratios
    _identity("F1M1_over_M1G1", _diagonal_form(m, n, p), _ratio(F1, M1, G1), values, reasons,
              failures)
    return _verdict(claim, reasons, failures, values, witness)


# the ratio along each diagonal division segment: its key and the slots of
# the segment's first end, the inner point and the second end
_PRODUCT_RATIOS = tuple((f"{u}{x}_over_{x}{v}", SLOT[u], SLOT[x], SLOT[v])
                        for x, (u, v), _ in _QUADRUPLES)


def _ratio_product(claim: str, cfg: Configuration) -> Verdict:
    """The four division ratios along the diagonal division segments
    multiply to exactly the side-ratio product."""
    t = cfg.triples
    reasons: list[str] = []
    values: dict[str, Pair] = {}
    num = den = 1
    for key, u, x, v in _PRODUCT_RATIOS:
        r = _ratio(t[u], t[x], t[v])
        if r is None:
            reasons.append(key + "_UNDEFINED")
        else:
            values[key] = r
            num *= r[0]
            den *= r[1]
    if reasons:
        return _verdict(claim, reasons, [], values)
    gamma = cfg.ratios.gamma
    ok = _equal((num, den), gamma)
    values["product"] = gamma if ok else (num, den)
    values["gamma"] = gamma
    return _verdict(claim, reasons, [] if ok else ["product mismatch"], values)


_INNER_NAMES = ("E", "M1", "N1", "P1", "Q1")
_INNER = _slots(*_INNER_NAMES, "M", "N", "P", "Q")
_SECTION_KEYS = ("MM1_over_M1P", "NN1_over_N1Q", "PP1_over_P1M", "QQ1_over_Q1N")


def _section_ratios(claim: str, cfg: Configuration) -> Verdict:
    """Closed forms for the ratios in which ``M1 N1 P1 Q1`` divide the
    transversals ``MP`` and ``NQ``, in both the plain and the
    product-weighted form."""
    m, n, p, q, (G, H) = cfg.ratios
    formulas = (_section_form(m, n, p), _section_form(n, p, q), _section_form(p, q, m),
                _section_form(q, m, n))
    # gamma(1/q)(1/(m+1)) + n(m/(m+1)), the crossing form at q/gamma,
    # evaluated from gamma on purpose: it equals the plain mn(p+1)/(m+1)
    # only because gamma = mnpq, which is what comparing the two tests
    weighted = _crossing_form((q[0] * H, q[1] * G), m, n)
    weighted_ok = _equal(weighted, formulas[0])
    values = {"MM1_over_M1P_weighted": formulas[0] if weighted_ok else weighted}
    reasons: list[str] = []
    failures: list[str] = []
    _, M1, N1, P1, Q1, M, N, P, Q = _INNER(cfg.triples)
    (m1, p1), (n1, q1) = parameter_pairs(M, P, (M1, P1)), parameter_pairs(N, Q, (N1, Q1))
    sections = (_split(m1), _split(n1), _split(p1, True), _split(q1, True))
    for key, formula, section in zip(_SECTION_KEYS, formulas, sections):
        _identity(key, formula, section, values, reasons, failures)
    if not weighted_ok:
        failures.append("MM1_over_M1P_weighted mismatch")
    return _verdict(claim, reasons, failures, values)


_EMP = _slots("E", "M", "P")


def _crossing_ratio_formula(claim: str, cfg: Configuration) -> Verdict:
    """The general closed form for ``ME/EP`` in terms of the unsigned
    trace ratio ``r`` of ``NQ`` on line ``AB`` (``r = 1`` when parallel);
    stated for convex quadrilaterals."""
    E, M, P = _EMP(cfg.triples)
    m, n, p, _, gamma = cfg.ratios
    reasons: list[str] = []
    failures: list[str] = []
    values = {"r": cfg.r_ratio}
    _finite("E", E, reasons)
    _identity("ME_over_EP", _trace_form(m, n, p, gamma, cfg.r_ratio), _ratio(M, E, P), values,
              reasons, failures)
    return _verdict(claim, reasons, failures, values, {"E": E} if E is not None else _EMPTY)


def _inner_quadrilateral(claim: str, cfg: Configuration) -> Verdict:
    """``E`` lies on both closed segments ``M1 P1`` and ``N1 Q1``, and the
    points along ``MP`` appear in the order dictated by the ratio-product
    trichotomy (convex quadrilaterals)."""
    points = E, M1, N1, P1, Q1, M, N, P, Q = _INNER(cfg.triples)
    reasons: list[str] = []
    if not all([_finite(name, x, reasons) for name, x in zip(_INNER_NAMES, points)]):
        return _verdict(claim, reasons, [])
    G, H = cfg.ratios.gamma
    values: dict[str, Pair] = {}
    failures: list[str] = []
    if G == H:
        if not (M1 == E == P1 and N1 == E == Q1):
            failures.append("product-one collapse violated")
    else:
        lams = parameter_pairs(M, P, (M1, E, P1)) + parameter_pairs(N, Q, (N1, E, Q1))
        if None in lams:
            calls = ((M, P, M1), (M, P, E), (M, P, P1), (N, Q, N1), (N, Q, E), (N, Q, Q1))
            error = parameter_error(*calls[lams.index(None)])
            return Verdict(claim, FAIL, detail=f"points left their carrier lines: {error}")
        # each affine parameter with a positive denominator
        lam_m1, lam_e, lam_p1, (n1, n1d), (e, ed), (q1, q1d) = [
            (num, den) if den > 0 else (-num, -den) for num, den in lams]
        values.update(lambda_M1_on_MP=lam_m1, lambda_E_on_MP=lam_e, lambda_P1_on_MP=lam_p1)
        if G < H:
            (f, fd), (g, gd), violated = lam_m1, lam_p1, "order M-M1-E-P1-P violated"
        else:
            (f, fd), (g, gd), violated = lam_p1, lam_m1, "order M-P1-E-M1-P violated"
        # 0 < first < E < last < 1
        x, xd = lam_e
        if not (0 < f and f * xd < x * fd and x * gd < g * xd and g < gd):
            failures.append(violated)
        # E - N1 and Q1 - E have the same sign, or one vanishes
        if (e * n1d - n1 * ed) * (q1 * ed - e * q1d) < 0:
            failures.append("E outside segment N1Q1")
    return _verdict(claim, reasons, failures, values, {"E": E})


_INNER_POINTS = ("M1", "N1", "P1", "Q1")
_INNER_QUAD = _slots(*_INNER_POINTS)


def _inner_quadrilateral_convexity(claim: str, cfg: Configuration) -> Verdict:
    """Empirical check on concave/crossed inputs: is ``M1 N1 P1 Q1``
    still convex (or collapsed)?  A failure here is a legitimate finding,
    not a defect."""
    points = _INNER_QUAD(cfg.triples)
    reasons: list[str] = []
    if not all([_finite(name, x, reasons) for name, x in zip(_INNER_POINTS, points)]):
        return _verdict(claim, reasons, [])
    # the guard above leaves four finite canonical triples
    shape = classify_triples(*points)
    values = {"inner_quad_convex": _b01(shape == CONVEX)}
    if shape == DEGENERATE_SHAPE:
        return Verdict(claim, DEGENERATE, detail="inner quadrilateral collapsed",
                       exact_values=values)
    status = PASS if shape == CONVEX else FAIL
    return Verdict(claim, status, detail=f"inner quadrilateral is {shape}",
                   exact_values=values)


# each regime named as in the README claims table, and whether a
# configuration lies in it
_REGIMES: Mapping[str, Callable[[Configuration], bool]] = {
    "gamma = 1": lambda cfg: cfg.ratios.gamma[0] == cfg.ratios.gamma[1],
    "any": lambda cfg: True,
    "convex": lambda cfg: cfg.quad.shape == CONVEX,
    "concave/crossed": lambda cfg: cfg.quad.shape != CONVEX,
}

# a product-one row's skip text, followed by the stored gamma
_GAMMA_ONE_SKIP = "requires side-ratio product 1, got "


# the vertices and side points, which every construction plan takes as input
_INPUTS = ("A", "B", "C", "D", "M", "N", "P", "Q")
_CEVIANS = ("A1", "B1", "C1", "D1")
_DIVISIONS = ("F1", "G1", "F2", "G2")

# one row per claim, in the fixed report order (product-one claims, the
# general suite, the convexity claims): (claim id, regime, finding, skip
# text, every point the check reads, check); ``counterexample`` builds only
# what its target reads.  A finding claim is an open empirical question, not
# a theorem: its failures are findings, never suite failures.
CLAIMS: tuple[tuple[str, str, bool, str, tuple[str, ...],
                    Callable[[str, Configuration], Verdict]], ...] = (
    ("diagonal_collinearity", "gamma = 1", False, _GAMMA_ONE_SKIP, _XOZYT_NAMES,
     _diagonal_collinearity),
    ("seven_lines", "gamma = 1", False, _GAMMA_ONE_SKIP,
     _INPUTS + _CEVIANS + _DIVISIONS + ("E",), _seven_lines),
    ("crossing_ratios", "gamma = 1", False, _GAMMA_ONE_SKIP, ("E", "M", "P", "N", "Q"),
     _crossing_ratios),
    ("diagonal_concurrence_iff", "gamma = 1", False, _GAMMA_ONE_SKIP, ("A", "C", "E", "C1"),
     _diagonal_concurrence_iff),
    ("quadruple_concurrences", "any", False, "",
     _INPUTS + _CEVIANS + _DIVISIONS + _INNER_POINTS, _quadruple_concurrences),
    ("ratio_product", "any", False, "", _DIVISIONS + _INNER_POINTS, _ratio_product),
    ("section_ratios", "any", False, "", ("M", "N", "P", "Q") + _INNER_POINTS,
     _section_ratios),
    # r is the trace ratio of R
    ("crossing_ratio_formula", "convex", False,
     "the trace-ratio form is stated for convex quadrilaterals", ("E", "M", "P", "R"),
     _crossing_ratio_formula),
    ("inner_quadrilateral", "convex", False,
     "segment ordering claims require a convex quadrilateral",
     _INNER_NAMES + ("M", "N", "P", "Q"), _inner_quadrilateral),
    ("inner_quadrilateral_convexity", "concave/crossed", True,
     "the empirical convexity check targets nonconvex inputs", _INNER_POINTS,
     _inner_quadrilateral_convexity),
)


def _rule(claim: str, regime: str, skip: str,
          check: Callable[[str, Configuration], Verdict]) -> Callable[[Configuration], Verdict]:
    """The runner of one ``CLAIMS`` row: ``skipped`` outside the regime, else
    the check.  A ``gamma = 1`` row's skip text is followed by the stored
    gamma; every other row's names no value."""
    in_regime = _REGIMES[regime]
    # a skip text that names no value gives one verdict, made here and
    # shared: a Verdict is immutable
    skipped = None if regime == "gamma = 1" else Verdict(claim, SKIPPED, detail=skip)

    def run(cfg: Configuration) -> Verdict:
        if not in_regime(cfg):
            if skipped is not None:
                return skipped
            # built positionally: every general instance skips four claims here
            detail = skip + reduced_text(*cfg.ratios.gamma)
            return tuple.__new__(Verdict, (claim, SKIPPED, detail, _EMPTY, _EMPTY))
        return check(claim, cfg)

    return run


# ``verify_all`` reads this at call time, so a caller may wrap the runners
CLAIM_RUNNERS: tuple[tuple[str, Callable[[Configuration], Verdict]], ...] = tuple(
    (claim, _rule(claim, regime, skip, check))
    for claim, regime, _, skip, _, check in CLAIMS)

CLAIM_IDS: tuple[str, ...] = tuple(claim for claim, *_ in CLAIMS)
_CLAIM_ID_SET = frozenset(CLAIM_IDS)

FINDING_CLAIMS: frozenset[str] = frozenset(
    claim for claim, _, finding, *_ in CLAIMS if finding)


def select_claims(checks: Iterable[str] | None = None) -> tuple[str, ...]:
    """The claim ids ``checks`` selects (all by default), once each and in
    the fixed order; an unknown id raises ``InstanceFormatError``."""
    return select(CLAIM_IDS, checks, "claim ids")


def verify_all(cfg: Configuration, checks: Sequence[str] | None = None) -> list[Verdict]:
    """Run the claims ``select_claims(checks)`` names, in the fixed order.

    A configuration outside a claim's regime gets a ``skipped`` verdict.
    """
    if checks is None:
        return [runner(cfg) for _, runner in CLAIM_RUNNERS]
    if not _CLAIM_ID_SET.issuperset(checks):
        select_claims(checks)  # raises, naming the unknown ids
    return [runner(cfg) for claim, runner in CLAIM_RUNNERS if claim in checks]


def overall_status(verdicts: Iterable[Verdict]) -> str:
    """``fail`` beats ``degenerate`` beats ``pass``; skips are neutral."""
    seen = [v.status for v in verdicts]
    if FAIL in seen:
        return FAIL
    if DEGENERATE in seen:
        return DEGENERATE
    return PASS
