"""Exception hierarchy shared by all modules."""


class SemiabelError(Exception):
    """Base class for every error raised by this package."""


class DegenerateLattice(SemiabelError):
    """Basis vectors are (numerically) R-linearly dependent."""


class ConvergenceFailure(SemiabelError):
    """A series or iteration failed to reach its tolerance."""


class PoleAtLatticePoint(SemiabelError):
    """Evaluation requested at (or too close to) a pole."""


class BeyondWorkingPrecision(SemiabelError):
    """Reducing the argument to a cell would lose more than the pole guard."""


class NotALatticePoint(SemiabelError):
    """Argument expected on the lattice is not a lattice point."""


class NotOnCurve(SemiabelError):
    """Affine coordinates do not satisfy the curve equation."""


class NotTorsion(SemiabelError):
    """Torsion precondition failed."""


class SingularCurve(SemiabelError):
    """Discriminant of the cubic vanishes."""


class FiberZero(SemiabelError):
    """Fiber coordinate of a semi-abelian point is zero."""


class NotApplicable(SemiabelError):
    """Operation is only defined for the n = s = 1 case."""


class InternalInconsistency(SemiabelError):
    """A cross-checked identity does not hold (dimension formulas against
    the table row, or a value against its closed form); never swallowed."""


class InconsistentOverride(SemiabelError):
    """A declared override contradicts a high-confidence detection."""


class TooManyValues(SemiabelError, ValueError):
    """A relation question has more values than the search supports."""


class SchemaError(SemiabelError):
    """Invalid job configuration; carries a JSON-pointer-style path."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class ConflictingCurveSpec(SchemaError):
    """Both explicit lattice and (g2, g3) were supplied."""

    def __init__(self, path="/curve"):
        super().__init__(path, "give either g2/g3 or a lattice, not both")
