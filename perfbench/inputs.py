"""Seeded inputs of the geometry tasks and the query stream.

Inputs are plain data (words, coordinate tuples and fractions) drawn with
``random.Random(seed)``; the same seed always gives the same inputs.  Group
models, balls and graphs are not built here: each timed task constructs
its own, as a command-line user pays for them on every run.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .reference import free_conj, free_reduce, heis_conj

# Query stream of one round: 2/5 free-group solves, 1/5 Heisenberg solves,
# 2/5 product estimates.
QUERY_MIX = (("free", 2), ("nilpotent", 1), ("rd", 2))
QUERIES_PER_ROUND = 2500


def random_word(rng: random.Random, length: int, rank: int = 2) -> tuple:
    """A uniformly random reduced word of exactly the given length."""
    letters = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    word: list = []
    while len(word) < length:
        x = rng.choice(letters)
        if not word or word[-1] != -x:
            word.append(x)
    return tuple(word)


def ball_word(rng: random.Random, radius: int, rank: int = 2) -> tuple:
    """A uniformly random element of the free-group ball of the radius."""
    sphere = [1] + [2 * rank * (2 * rank - 1) ** (k - 1) for k in range(1, radius + 1)]
    length = rng.choices(range(radius + 1), weights=sphere)[0]
    return random_word(rng, length, rank)


def geometry_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "coned_a_sources": [ball_word(rng, 8) for _ in range(100)],
        "coned_ab_sources": [ball_word(rng, 6) for _ in range(10)],
        "tree_source": ball_word(rng, 4),
        # which source row of each coned graph networkx recomputes
        "networkx_pick": (rng.randrange(100), rng.randrange(10)),
    }


def _free_query(rng: random.Random) -> dict:
    u = random_word(rng, rng.randint(6, 30))
    g = random_word(rng, rng.randint(0, 10))
    v = free_conj(g, u)
    positive = rng.random() < 0.5
    if not positive:
        # inverting one letter changes an exponent sum by 2: certified not conjugate
        i = rng.randrange(len(v))
        v = free_reduce(v[:i] + (-v[i],) + v[i + 1:])
    return {"kind": "free", "u": u, "v": v, "conjugate": positive}


def _nilpotent_query(rng: random.Random) -> dict:
    positive = rng.random() < 0.5
    if positive:
        x = (rng.randint(-5, 5), rng.randint(-5, 5))
    else:
        # even base exponents: every conjugate's central part differs from
        # u's by a multiple of gcd(x), which never divides an odd offset
        x = (2 * rng.randint(-3, 3), 2 * rng.randint(-3, 3))
    u = (x, (rng.randint(-30, 30),))
    g = ((rng.randint(-3, 3), rng.randint(-3, 3)), (rng.randint(-10, 10),))
    v = heis_conj(g, u)
    if not positive:
        v = (v[0], (v[1][0] + 1,))
    return {"kind": "nilpotent", "u": u, "v": v, "conjugate": positive}


def _vector_terms(rng: random.Random) -> list:
    return [
        (ball_word(rng, 4), Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4)))
        for _ in range(rng.randint(1, 8))
    ]


def _rd_query(rng: random.Random) -> dict:
    return {"kind": "rd", "a": _vector_terms(rng), "b": _vector_terms(rng), "m": rng.randint(0, 3)}


_MAKERS = {"free": _free_query, "nilpotent": _nilpotent_query, "rd": _rd_query}


def query_inputs(seed: int, count: int = QUERIES_PER_ROUND) -> list:
    rng = random.Random(seed)
    total = sum(share for _, share in QUERY_MIX)
    kinds = [kind for kind, share in QUERY_MIX for _ in range(count * share // total)]
    rng.shuffle(kinds)
    return [_MAKERS[kind](rng) for kind in kinds]
