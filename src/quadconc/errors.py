"""Exception types, one per outcome of an input, with its ``quadconc`` exit code:

* invalid input: :class:`InstanceFormatError`, exit 2;
* a configuration that cannot be built: :class:`DegenerateQuadrilateral`
  or :class:`UndefinedPoint`, reported as degenerate, exit 0;
* a built configuration raises nothing: its claims decide exit 0 or 1;
* rejection sampling that gives up: :class:`GenerationExhausted`, which
  ``fuzz`` reports in place of the instance;
* misuse of the kernel (say, the line through one point twice): a plain
  :class:`GeometryError`.

A subclass exists only because some caller catches it by name.
:func:`select` checks a selection of claim ids or figure layers.
"""


class GeometryError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateQuadrilateral(GeometryError):
    """The quadrilateral has collinear or repeated vertices."""


class UndefinedPoint(GeometryError):
    """A named point cannot be constructed: its defining lines coincide."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"point {name} is undefined: defining lines coincide")


class GenerationExhausted(GeometryError):
    """Rejection sampling hit its attempt cap without producing an instance."""


class InstanceFormatError(ValueError):
    """Any invalid input from outside the program (an instance document, a
    claim id, a layer name, a generator argument, a side point or ratio);
    the message says where."""


def select(universe: tuple[str, ...], names, kind: str) -> tuple[str, ...]:
    """The names of ``universe`` in the iterable ``names`` (all when None),
    once each and in order; unknown ones raise ``InstanceFormatError``."""
    if names is None:
        return universe
    wanted = set(names)
    unknown = sorted(wanted.difference(universe))
    if unknown:
        raise InstanceFormatError(f"unknown {kind}: {', '.join(unknown)}")
    return tuple([name for name in universe if name in wanted])
