"""Support caps guarding the combinatorial evaluators.

The caps exist because three routes are exponential in the support
size: the reference routes in `oracles` (`tsirelson`: the brute-force
norm oracle and the norming-set enumeration; no production evaluator
checks it), the modified norm's integer bitmask subset DP over set
partitions (`modified`, which also bounds the supports `estimate_cm`
enumerates; at most 0.07 s at support 12, 0.20 s before the search
skipped dominated part counts), and the dual-norm LP (`dual`).  They are
configuration values, not hard constants, and can be overridden through
the environment variable BANACHLAB_CAPS, e.g.

    BANACHLAB_CAPS=tsirelson=10,modified=8,dual=10
"""

from __future__ import annotations

import os

from .records import Frozen

ENV_VAR = "BANACHLAB_CAPS"


class Caps(Frozen):
    _fields = ("tsirelson", "modified", "dual")

    def __init__(self, tsirelson: int = 10, modified: int = 12, dual: int = 10):
        object.__setattr__(self, "tsirelson", tsirelson)
        object.__setattr__(self, "modified", modified)
        object.__setattr__(self, "dual", dual)

    def check(self, name: str, size: int) -> None:
        limit = getattr(self, name)
        if size > limit:
            from .errors import CapExceeded

            raise CapExceeded(
                f"support size {size} exceeds cap '{name}' = {limit}"
            )


def parse_caps(text: str) -> Caps:
    """Parse a `name=value,...` override string; each value is an
    integer of at least 1."""
    from .errors import InputError

    values = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        name = name.strip()
        if name not in ("tsirelson", "modified", "dual"):
            raise InputError(f"unknown cap name {name!r} in {ENV_VAR}")
        try:
            limit = int(value)
        except ValueError:
            limit = 0
        if limit < 1:  # a cap below 1 would refuse every support
            raise InputError(f"bad cap value {value!r} for {name!r}")
        values[name] = limit
    return Caps(**values)


def get_caps() -> Caps:
    """Caps from the environment, or the defaults."""
    text = os.environ.get(ENV_VAR)
    return parse_caps(text) if text else Caps()
