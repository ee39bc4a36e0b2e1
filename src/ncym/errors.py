"""Exception types shared across the package."""


class NcymError(Exception):
    """Base class for all library errors."""


class ThetaMismatch(NcymError):
    """Operands live over different deformation matrices."""


class IndexOutOfRange(NcymError):
    """Generator or derivation index outside 1..n, or a multi-index entry too
    large for the star-product kernels' int64 index arithmetic."""


class ShapeMismatch(NcymError):
    """Matrix/vector shapes or ranks do not line up."""


class InvalidConnection(NcymError):
    """Connection violates its structural invariants."""


class NonFiniteValue(NcymError):
    """A computed value became NaN or infinite."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class DomainError(NcymError):
    """Numeric argument outside the admissible domain."""


class InvalidTriple(NcymError):
    """Finite spectral triple violates its invariants."""


class MissingGrading(NcymError):
    """Operation requires an even triple but no grading is present."""


class AlreadyEven(NcymError):
    """double_odd applied to a triple that already carries a grading."""


class ZeroMu(NcymError):
    """Matrix-case classification requires a nonzero coupling matrix."""


class ConfigInvalid(NcymError):
    """Experiment config failed validation; carries every path-addressed diagnostic."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(f"{d.path}: {d.message}" for d in self.diagnostics)
        super().__init__(f"invalid config: {lines}")


class ComputeError(NcymError):
    """Error propagated from a computation module during a CLI run."""
