"""Enumeration size guard shared by the exponential constructions.

Covector expansion and Salvetti cell enumeration both blow up
exponentially in the number of elements, so anything above the cap is
rejected with a clean error instead of silently grinding.  A cap that
is not an integer is rejected the same way.
"""

import os

from .errors import EnumerationLimitExceeded

SALVETTI_CAP_ENV = "OM_SALVETTI_MAX_N"
DEFAULT_CAP = 12


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

