"""Machine-readable report plumbing shared by verifiers and the CLI.

Rational values are serialized as `p/q` strings so nothing is lost to
floating point; JSON emission sorts keys so identical runs are
byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Optional, Union

from .records import Record


def encode_value(value):
    """JSON-safe encoding: Fractions as 'p/q', floats/ints unchanged."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    return value


class VerifierReport(Record):
    """Outcome of one desk-scale verifier run; mutable and unhashable.

    `passed` is True/False for the hard assertions (explicit constants)
    and the string "reported" where the claimed bound involves a
    constant with no known numeric value.  The witness always reproduces
    `max_ratio` when re-evaluated.
    """

    _fields = ("lemma", "params", "samples", "max_ratio", "witness", "passed", "seed", "bound_claimed")

    def __init__(
        self,
        lemma: str,
        params: dict,
        samples: int,
        max_ratio: Union[Fraction, float, None],
        witness: Any,
        passed: Union[bool, str],
        seed: Optional[int] = None,
        bound_claimed: str = "",
    ):
        self.lemma = lemma
        self.params = params
        self.samples = samples
        self.max_ratio = max_ratio
        self.witness = witness
        self.passed = passed
        self.seed = seed
        self.bound_claimed = bound_claimed

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "params": encode_value(self.params),
            "samples": self.samples,
            "max_ratio": encode_value(self.max_ratio),
            "witness": encode_value(self.witness),
            "pass": self.passed,
            "seed": self.seed,
            "bound_claimed": self.bound_claimed,
        }

    def to_json(self, decimals: Optional[int] = None) -> str:
        data = self.to_dict()
        if decimals is not None and self.max_ratio is not None:
            data["max_ratio_decimal"] = round(float(self.max_ratio), decimals)
        return json.dumps(data, sort_keys=True, separators=(",", ":"))
