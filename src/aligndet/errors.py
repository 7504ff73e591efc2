"""Exception types shared across the package."""


class AligndetError(Exception):
    """Base class for all errors raised by aligndet."""


class ShapeError(AligndetError, ValueError):
    """Operand shapes do not conform for the requested operation."""


class GraphError(AligndetError, ValueError):
    """A differentiable-graph contract was violated (e.g. non-scalar output)."""


class GeometryError(AligndetError, ValueError):
    """Invalid box geometry (e.g. negative point-to-edge distances)."""


class NumericError(AligndetError, ValueError):
    """An input that must be finite holds NaN or an infinity."""


class FormatError(AligndetError, ValueError):
    """Malformed serialized data.

    ``offset`` is the byte offset at which parsing failed.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class CheckpointError(AligndetError, ValueError):
    """Checkpoint manifest and payload disagree, or a parameter is missing."""


class ConfigError(AligndetError, ValueError):
    """Invalid model or dataset configuration."""


class TrainingError(AligndetError, RuntimeError):
    """Training produced a non-finite loss.

    ``component`` names the offending loss term.
    """

    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = component
