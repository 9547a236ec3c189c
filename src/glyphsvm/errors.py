"""Exception types shared across the package.

Every error carries a stable ``category`` string that the CLI prints in its
one-line machine-parsable error output.
"""


class GlyphSvmError(Exception):
    """Base class for all package errors."""

    category = "Error"


class UniformImageError(GlyphSvmError):
    """All pixels identical; no threshold can separate two classes."""

    category = "UniformImage"


class EmptyPageError(GlyphSvmError):
    """Page contains no foreground pixels."""

    category = "EmptyPage"


class AngleOutOfRangeError(GlyphSvmError):
    """Requested rotation outside the supported +/-15 degree range."""

    category = "AngleOutOfRange"


class EmptyCropError(GlyphSvmError):
    """Crop has no foreground pixels or zero area."""

    category = "EmptyCrop"


class WrongDimensionsError(GlyphSvmError):
    """Image does not have the dimensions the operation requires."""

    category = "WrongDimensions"


class DimensionMismatchError(GlyphSvmError):
    """Vector dimensions disagree."""

    category = "DimensionMismatch"


class SingleClassError(GlyphSvmError):
    """Training data contains only one class."""

    category = "SingleClass"


class NoConvergenceError(GlyphSvmError):
    """Solver hit its iteration cap before satisfying the KKT conditions.

    Carries partial diagnostics: the iteration count reached and the final
    KKT violation, plus an optional context tag (e.g. the multiclass task
    that failed).
    """

    category = "NoConvergence"

    def __init__(self, message, iterations=None, violation=None, context=None):
        super().__init__(message)
        self.iterations = iterations
        self.violation = violation
        self.context = context


class DegenerateSplitError(GlyphSvmError):
    """Train/test split left one side empty."""

    category = "DegenerateSplit"


class BadKError(GlyphSvmError):
    """Fold count outside 2 <= k <= n."""

    category = "BadK"


class FoldDegenerateError(GlyphSvmError):
    """Some fold leaves fewer than two classes on its training side."""

    category = "FoldDegenerate"


class BadMagicError(GlyphSvmError):
    """Model file does not start with the expected magic string."""

    category = "BadMagic"


class VersionMismatchError(GlyphSvmError):
    """Model file format version is not supported."""

    category = "VersionMismatch"


class CorruptBlockError(GlyphSvmError):
    """Model file block has a count or length mismatch, or is truncated."""

    category = "CorruptBlock"


class UnreadableFileError(GlyphSvmError):
    """Input file cannot be decoded or used."""

    category = "UnreadableFile"


class EmptyClassError(GlyphSvmError):
    """A class directory contains no usable sample files."""

    category = "EmptyClass"


class MixedDimensionsError(GlyphSvmError):
    """Feature rows in one dataset have differing dimensions."""

    category = "MixedDimensions"


class InvalidConfigError(GlyphSvmError, ValueError):
    """Configuration violates its documented invariants (also a ValueError)."""

    category = "InvalidConfig"


class NonFiniteInputError(GlyphSvmError, ValueError):
    """A feature vector holds NaN or infinity (also a ValueError)."""

    category = "NonFiniteInput"


class IoFailureError(GlyphSvmError):
    """Filesystem write or read failed."""

    category = "IoFailure"
