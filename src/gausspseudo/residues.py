"""Gaussian integers a+bi used as the bases of the Fermat tests.

A base is a fixed nonzero Gaussian integer with components of at most
2**31 in magnitude; the tests reduce it modulo each n they decide.
"""

from __future__ import annotations

import re as _regex
from dataclasses import dataclass

COMPONENT_CAP = 1 << 31

_BASE_PATTERN = _regex.compile(r"^\s*([+-]?\d+)\s*([+-])\s*(\d+)\s*i\s*$")


@dataclass(frozen=True)
class GaussianBase:
    """A fixed Gaussian integer used as a test base, e.g. 1+2i."""

    re: int
    im: int

    def __post_init__(self) -> None:
        if (self.re, self.im) == (0, 0):
            raise ValueError("base must be nonzero")
        if abs(self.re) > COMPONENT_CAP or abs(self.im) > COMPONENT_CAP:
            raise ValueError("base components must not exceed 2**31 in magnitude")

    def norm(self) -> int:
        """re^2 + im^2 over the plain integers (not reduced)."""
        return self.re * self.re + self.im * self.im

    @classmethod
    def parse(cls, text: str) -> "GaussianBase":
        """Parse 'a+bi' / 'a-bi' (optional spaces around the sign)."""
        m = _BASE_PATTERN.match(text)
        if not m:
            raise ValueError(f"cannot parse Gaussian base {text!r}; expected 'a+bi'")
        re_part = int(m.group(1))
        im_part = int(m.group(3))
        if m.group(2) == "-":
            im_part = -im_part
        return cls(re_part, im_part)

    def __str__(self) -> str:
        return f"{self.re}{self.im:+d}i"
