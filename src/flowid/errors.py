"""Exception types and the physical-memory check shared across the package.

Each error class carries the exit code and the prefix of the line that the
`flowid` CLI prints for it: one class per exit code.
"""

import os


def check_memory(nbytes: int, what: str) -> None:
    """MemoryError when `nbytes`, a lower bound on `what`, exceeds physical memory."""
    limit = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > limit:
        raise MemoryError(f"{what} take more than the {limit / 2**30:.1f} GiB of physical memory")


class FlowidError(Exception):
    """Base class of this package's errors; only its subclasses are raised."""
    exit_code: int
    prefix: str


class FormatError(FlowidError):
    """Malformed capture, flow record, checkpoint or checkpoint sidecar."""
    exit_code, prefix = 2, "format error"


class ConfigError(FlowidError):
    """Invalid configuration value or combination, or tensor geometry."""
    exit_code, prefix = 3, "config error"
