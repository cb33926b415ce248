"""Exception types shared across the package."""


class FlowidError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FlowidError):
    """Invalid configuration value or combination."""


class ShapeError(FlowidError):
    """Tensor/matrix geometry does not satisfy an operation's contract."""


class PcapFormatError(FlowidError):
    """Malformed capture file. Carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class FlowFormatError(FlowidError):
    """Malformed flow JSONL record."""


class CheckpointError(FlowidError):
    """Unreadable, corrupt, or inconsistent checkpoint file."""
