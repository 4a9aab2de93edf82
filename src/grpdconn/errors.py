"""Exception types shared across the library."""


class GrpdConnError(Exception):
    """Base class for all library errors."""


class EvaluationOutsideDomain(GrpdConnError):
    """A map or probe point landed inside an excluded ball or off its patch."""


class InvalidHorizon(GrpdConnError):
    pass


class DegenerateBasis(GrpdConnError):
    pass


class SamplerFailure(GrpdConnError):
    pass


class InvalidParams(GrpdConnError):
    pass


class FrameRankMismatch(GrpdConnError):
    pass


class NotASplitting(GrpdConnError):
    pass


class RankDeficientLift(GrpdConnError):
    pass


class KernelNotExposed(GrpdConnError):
    pass


class KernelEmbeddingNotPatchConstant(GrpdConnError):
    """A kernel embedding's Jacobian, or that of the base groupoid's unit, is
    not declared a ``PatchJacobian``."""


class NotAnActionMorphism(GrpdConnError):
    pass


class NotAFamily(GrpdConnError):
    pass


class StartFiberMismatch(GrpdConnError):
    pass


class NotALoop(GrpdConnError):
    pass


class PairSamplerFailure(SamplerFailure):
    pass


class NotASubmersion(GrpdConnError):
    pass


class PartitionGap(GrpdConnError):
    pass


class NonProjectableInput(GrpdConnError):
    pass


class QuadratureMissing(GrpdConnError):
    pass


class NotSourceProper(GrpdConnError):
    pass


class SupremumUnbounded(GrpdConnError):
    pass


class CertificateFailure(GrpdConnError):
    """Raised by the complete-connection builder when a certificate clause fails.

    Carries the violated clause name in ``args[0]``.
    """


class AtlasMismatch(GrpdConnError):
    pass


class UnknownScenario(GrpdConnError):
    pass
