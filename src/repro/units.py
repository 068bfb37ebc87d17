"""Size and time unit helpers used across the library.

All byte quantities in :mod:`repro` are plain integers (bytes) and all times
are floats (seconds). These helpers exist so that configuration code can say
``128 * MB`` instead of ``134217728`` and report code can render quantities
the way the paper does.
"""

from __future__ import annotations

KB: int = 1024
MB: int = 1024 * KB
GB: int = 1024 * MB
TB: int = 1024 * GB

_SIZE_STEPS = ((TB, "TB"), (GB, "GB"), (MB, "MB"), (KB, "KB"))


def fmt_bytes(n: int | float) -> str:
    """Render a byte count with a binary-unit suffix.

    >>> fmt_bytes(128 * MB)
    '128.0 MB'
    >>> fmt_bytes(999)
    '999 B'
    """
    if n < 0:
        return "-" + fmt_bytes(-n)
    for step, suffix in _SIZE_STEPS:
        if n >= step:
            return f"{n / step:.1f} {suffix}"
    return f"{int(n)} B"


def fmt_seconds(t: float) -> str:
    """Render a duration in seconds the way the paper's tables do.

    Durations under ten seconds keep millisecond precision (Table II reports
    values like ``0.072``); larger values are rendered with one decimal.

    >>> fmt_seconds(0.0721)
    '0.072'
    >>> fmt_seconds(96.067)
    '96.1'
    """
    if t < 0:
        return "-" + fmt_seconds(-t)
    if t < 10.0:
        return f"{t:.3f}"
    return f"{t:.1f}"


def parse_size(text: str) -> int:
    """Parse a human size string (``'120GB'``, ``'128 MB'``, ``'42'``) to bytes.

    Raises :class:`ValueError` for unknown suffixes or malformed numbers.
    """
    s = text.strip().upper().replace(" ", "")
    suffixes = {"TB": TB, "GB": GB, "MB": MB, "KB": KB, "B": 1}
    for suffix in ("TB", "GB", "MB", "KB", "B"):
        if s.endswith(suffix):
            num = s[: -len(suffix)]
            return int(float(num) * suffixes[suffix])
    return int(float(s))
