"""Exception types shared across the verification library."""


class VerifyError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(VerifyError):
    pass


class ShapeMismatch(VerifyError):
    pass


class RankDeficient(VerifyError):
    pass


class NotAComplexStructure(VerifyError):
    pass


class UnbalancedEigenspaces(VerifyError):
    pass


class NotNormalized(VerifyError):
    pass


class NotASubspaceOfFiber(VerifyError):
    pass


class DomainError(VerifyError):
    pass


class InvalidParams(VerifyError):
    pass


class Infeasible(InvalidParams):
    """A linear program whose constraints no point satisfies."""


class LPFailure(VerifyError):
    """A linear program whose computed answer fails its own check."""


class RankDeficientEmbedding(VerifyError):
    pass


class EigenSplitFailure(VerifyError):
    pass


class NotTransverse(VerifyError):
    pass


class ChartDegeneracy(VerifyError):
    pass


class NotCompatible(VerifyError):
    pass


class DegenerateHull(VerifyError):
    pass


class SchemaError(VerifyError):
    """Scenario file fails JSON parsing or schema validation."""
