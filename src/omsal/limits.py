"""Enumeration size guard shared by the exponential constructions.

Covector expansion and Salvetti cell enumeration both blow up
exponentially in the number of elements, so anything above the cap is
rejected with a clean error instead of silently grinding.  A cap that
is not an integer is rejected the same way.  The matrix dump of the
order complex grows the same way and has a fixed cap on the bytes it
would write.
"""

import os

from .errors import EnumerationLimitExceeded

SALVETTI_CAP_ENV = "OM_SALVETTI_MAX_N"
DEFAULT_CAP = 12
DUMP_BYTES_CAP = 256 << 20  # 256 MiB


def enumeration_cap() -> int:
    raw = os.environ.get(SALVETTI_CAP_ENV, "")
    try:
        return int(raw) if raw else DEFAULT_CAP
    except ValueError:
        raise EnumerationLimitExceeded(
            f"{SALVETTI_CAP_ENV}={raw!r} is not an integer") from None


def check_cap(n: int):
    cap = enumeration_cap()
    if n > cap:
        raise EnumerationLimitExceeded(f"n={n} exceeds {SALVETTI_CAP_ENV}={cap}")


def check_dump_size(dims):
    """Refuse a matrix dump over DUMP_BYTES_CAP before anything is listed.

    dims holds the number of faces of each dimension.  Boundary k is
    written as a dense dims[k-1] x dims[k] text matrix of at least two
    bytes per entry, so the sum of 2 * dims[k-1] * dims[k] bounds the dump
    from below.
    """
    size = sum(2 * a * b for a, b in zip(dims, dims[1:]))
    if size > DUMP_BYTES_CAP:
        raise EnumerationLimitExceeded(
            f"the matrix dump would write at least {size} bytes, over the "
            f"cap of {DUMP_BYTES_CAP}")
