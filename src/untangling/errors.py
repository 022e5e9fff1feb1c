"""Exception taxonomy shared by all modules."""


class UntanglingError(Exception):
    """Base class for all library errors."""


class NotOuterplanar(UntanglingError):
    """The graph admits no crossing-free circular order."""


class NotAlmostPlanar(UntanglingError):
    """No single edge is involved in all crossings of the drawing."""


class UnknownVertex(UntanglingError):
    """A move references a vertex that is not in the graph."""


class UnknownEdge(UntanglingError):
    """An operation references an edge that is not in the graph."""


class TooLarge(UntanglingError):
    """An exhaustive operation was asked to exceed its budget cap."""


class InvalidInstance(UntanglingError):
    """A problem instance violates its declared invariants."""


class NotDistinct(UntanglingError):
    """A chunk instance contains repeated ranks where distinctness is required."""


class NotAWitness(UntanglingError):
    """A claimed witness fails verification."""


class PropertyViolation(UntanglingError):
    """A structural property of a reduced instance does not hold.

    Carries the property name and a small witness of the violation.
    """

    def __init__(self, prop: str, witness=None):
        self.prop = prop
        self.witness = witness
        super().__init__(f"property {prop} violated" + (f": {witness!r}" if witness is not None else ""))


class ConstructionFailed(UntanglingError):
    """An internally verified construction failed its own verification (a bug)."""


class GenerationFailed(UntanglingError):
    """Random generation did not produce a valid instance within its retry budget."""


class InvalidN(UntanglingError):
    """A generator was called with an unusable size parameter."""


class StructuralAssertionFailed(UntanglingError):
    """A runtime structural assertion failed.

    These assertions encode facts that hold for every valid almost-planar
    drawing of an outerplanar graph; a failure signals invalid input or a bug,
    never a recoverable condition.
    """


class FormatError(UntanglingError):
    """A text file does not parse as the expected format."""
