"""``Fraction`` views of the package's rationals, and ways into it, for tests.

The package holds every rational as an integer ``(num, den)`` pair and
every point as a canonical integer triple, and reads no ``Fraction``.  The
naive twin and the comparisons in the tests read pairs and points as
``Fraction``s through ``frac`` and ``affine``; the tests write points,
side ratios and single bounded draws as ``int``s and ``Fraction``s through
``pt``, ``side_ratios`` and ``draw``.
"""

from fractions import Fraction

from quadconc import Point, SideRatios
from quadconc._purekernel import reduce3


def frac(pair: tuple[int, int]) -> Fraction:
    """The rational ``num/den`` of a pair; ``den`` is nonzero, of either sign."""
    return Fraction(*pair)


def affine(point) -> tuple[Fraction, Fraction]:
    """The affine coordinates ``(x/w, y/w)`` of a finite point."""
    x, y, w = point.triple()
    if w == 0:
        raise ValueError(f"{point!r} is ideal and has no affine coordinates")
    return Fraction(x, w), Fraction(y, w)


def pt(x, y, w=1) -> Point:
    """The point ``(x, y, w)``, each an ``int`` or a ``Fraction``; the zero
    triple raises ``ValueError``."""
    (xn, xd), (yn, yd), (wn, wd) = (Fraction(v).as_integer_ratio() for v in (x, y, w))
    return Point._wrap(reduce3(xn * yd * wd, yn * xd * wd, wn * xd * yd))


def side_ratios(m, n, p, q) -> SideRatios:
    """The side ratios ``m n p q``, each an ``int`` or a ``Fraction``."""
    return SideRatios(*(Fraction(v).as_integer_ratio() for v in (m, n, p, q)))


def draw(rng, lo: int, hi: int) -> int:
    """One bounded draw in ``[lo, hi]`` from the stream ``rng``."""
    return rng.ints(((lo, hi - lo + 1),))[0]
