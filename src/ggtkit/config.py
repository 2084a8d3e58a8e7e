"""Default resource caps and constants."""

from __future__ import annotations

from fractions import Fraction

DEFAULT_BALL_CAP = 10**6
DEFAULT_BASIS_CAP = 10**4
DEFAULT_RADIUS_CAP = 64
# Dominating-constant ceiling and largest degree of the conjugacy-bound
# profiler fit.  A fit of degree d is accepted only when every record
# satisfies min_length <= A * (1 + input_length)**d with A <= this cap.
DEFAULT_FIT_CAP = Fraction(1)
FIT_MAX_DEGREE = 6
# Vertex budget of the exhaustive four-point sweep.  Delta is swept block by
# block over the biconnected blocks of at least 4 vertices, and a block of n
# vertices costs n distance rows and on the order of n^4 quadruples; the
# swept blocks, glued in a chain at one vertex each, may have at most this
# many vertices, so every graph of at most this many vertices is swept.
DEFAULT_EXHAUSTIVE_QUADRUPLE_CAP = 200

