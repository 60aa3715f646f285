"""Exception hierarchy for the exact-geometry core and the builders."""


class GeometryError(Exception):
    """Base class for all domain errors raised by this package."""


class CoincidentPoints(GeometryError):
    """Two points that must be distinct are projectively equal."""


class CoincidentLines(GeometryError):
    """Two lines that must be distinct are projectively equal."""


class CoincidentEndpoints(GeometryError):
    """The endpoints of a division are the same point."""


class IdealLine(GeometryError):
    """The requested line would be the line at infinity."""


class RatioMinusOne(GeometryError):
    """Division ratio -1 would place the point at infinity."""


class InfiniteRatio(GeometryError):
    """The division point coincides with the second endpoint."""


class NotCollinear(GeometryError):
    """Three points expected to be collinear are not."""


class NotFinite(GeometryError):
    """An ideal point was passed where a finite point is required."""


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


class InstanceFormatError(Exception):
    """An instance document is malformed; message carries the location."""
