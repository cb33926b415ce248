"""Exception types and the physical-memory check shared across the package."""

import os


def check_memory(nbytes: int, what: str) -> None:
    """MemoryError when `nbytes`, a lower bound on `what`, exceeds physical memory."""
    limit = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > limit:
        raise MemoryError(f"{what} take more than the {limit / 2**30:.1f} GiB of physical memory")


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
