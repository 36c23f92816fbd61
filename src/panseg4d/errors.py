"""Exception and warning types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for every error this package raises on purpose."""


class FileTooShort(PipelineError):
    """Binary file length is not a whole number of records."""


class NonFiniteValue(PipelineError):
    """A coordinate decoded to NaN or Inf."""


class CountMismatch(PipelineError):
    """A file holds a different number of records than expected."""


class MalformedLine(PipelineError):
    """A text line has the wrong token count or an unparseable number."""


class MissingTrLine(PipelineError):
    """Calibration file has no 'Tr:' line."""


class IdOverflow(PipelineError):
    """A semantic or instance id does not fit in 16 bits."""


class WindowOutOfRange(PipelineError):
    """Requested scan window lies outside the sequence."""


class LengthMismatch(PipelineError):
    """Aligned per-point sequences have different lengths."""


class OverlapMismatch(PipelineError):
    """Consecutive windows do not share whole scans, tail to head, row for row."""


class IdOutOfRange(PipelineError):
    """Train id outside [0, n_classes)."""


class AllZeroRow(PipelineError):
    """A confidence row has no positive entry and cannot be normalized."""


class EmptyAfterFilter(PipelineError):
    """All member labels were filtered out before voting."""


class EmptyInput(PipelineError):
    """Operation requires at least one point."""


class InfeasibleLayout(PipelineError):
    """Scene generator could not satisfy the separation constraints."""


class ConfigError(PipelineError):
    """Invalid or inconsistent configuration."""


class NonOrthonormalRotationWarning(UserWarning):
    """Parsed rotation block deviates from orthonormality beyond tolerance."""


class NoOverlapWarning(UserWarning):
    """Consecutive windows share no scan; tracker assigns fresh ids."""


class UnknownRawIdWarning(UserWarning):
    """Raw label ids absent from the class map were folded into IGNORE."""


class PerformanceWarning(UserWarning):
    """Measured throughput fell below the documented floor."""
