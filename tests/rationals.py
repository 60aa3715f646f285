"""``Fraction`` views of the package's rationals, for tests.

The package holds every rational as an integer ``(num, den)`` pair and
every point as an integer triple.  The naive twin and the comparisons in
the tests read them as ``Fraction``s through these two helpers.
"""

from fractions import Fraction


def frac(pair: tuple[int, int]) -> Fraction:
    """The rational ``num/den`` of a pair; ``den`` is nonzero, of either sign."""
    return Fraction(*pair)


def affine(pt) -> tuple[Fraction, Fraction]:
    """The affine coordinates ``(x/w, y/w)`` of a finite point."""
    x, y, w = pt.triple()
    if w == 0:
        raise ValueError(f"{pt!r} is ideal and has no affine coordinates")
    return Fraction(x, w), Fraction(y, w)
