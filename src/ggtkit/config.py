"""Run-wide configuration: resource caps and seed."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigError

DEFAULT_BALL_CAP = 10**6
DEFAULT_BASIS_CAP = 10**4
DEFAULT_RADIUS_CAP = 64
DEFAULT_DELTA_MIN = Fraction(1, 4)
# Dominating-constant ceiling for the conjugacy-bound profiler fit.  A fit of
# degree d is accepted only when every record satisfies
# min_length <= A * (1 + input_length)**d with A <= this cap.
DEFAULT_FIT_CAP = Fraction(1)
# Vertex budget of the exhaustive four-point sweep.  Delta is swept block by
# block over the biconnected blocks of at least 4 vertices, and a block of n
# vertices costs n distance rows and on the order of n^4 quadruples; the
# swept blocks, glued in a chain at one vertex each, may have at most this
# many vertices, so every graph of at most this many vertices is swept.
DEFAULT_EXHAUSTIVE_QUADRUPLE_CAP = 200


@dataclass
class Caps:
    """Hard resource limits; exceeding one raises ResourceCapError."""

    ball_size: int = DEFAULT_BALL_CAP
    basis_size: int = DEFAULT_BASIS_CAP

    def validate(self) -> None:
        for name in ("ball_size", "basis_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"cap {name!r} must be positive")


@dataclass
class RunConfig:
    """Everything a reproducible run depends on besides the inputs themselves."""

    caps: Caps = field(default_factory=Caps)
    seed: int = 0

    def validate(self) -> None:
        self.caps.validate()
