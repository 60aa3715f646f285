"""Exception hierarchy for the exact-geometry core and configuration construction.

A failure that no caller tells apart by type is a plain
:class:`GeometryError`; each subclass below is caught by name somewhere.
"""


class GeometryError(Exception):
    """Base class for all domain errors raised by this package."""


class CoincidentPoints(GeometryError):
    """Two points that must be distinct are projectively equal."""


class IdealLine(GeometryError):
    """The requested line would be the line at infinity."""


class DegenerateQuadrilateral(GeometryError):
    """The quadrilateral has collinear or repeated vertices."""


class UndefinedPoint(GeometryError):
    """A named point cannot be constructed: its defining lines coincide."""

    def __init__(self, name: str, message: str = ""):
        self.name = name
        super().__init__(message or f"point {name} is undefined: defining lines coincide")


class PointNotOnSide(GeometryError):
    """A prescribed side point does not lie on the open side it belongs to."""

    def __init__(self, name: str, message: str = ""):
        self.name = name
        super().__init__(message or f"point {name} does not lie on its side")


class GenerationExhausted(GeometryError):
    """Rejection sampling hit its attempt cap without producing an instance."""


class InstanceFormatError(ValueError):
    """Any invalid input from outside the program (an instance document, a
    claim id, a layer name, a generator argument); the message says where."""
