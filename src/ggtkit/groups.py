"""Exact group arithmetic with canonical normal forms.

Five group models are supported: free groups, free abelian groups,
torsion-free two-step nilpotent groups in normal-form coordinates,
finite groups given by a multiplication table, and free products of the
above.  Every element is a plain hashable payload in canonical form:

- free group:           tuple of nonzero signed letters, freely reduced
- free abelian:         tuple of ints
- two-step nilpotent:   pair (a, c) of int tuples (base and central part)
- finite:               int index into the table
- free product:         tuple of (factor_index, payload) syllables,
                        alternating factors, no identity syllables

Elements of distinct models are never interchangeable; public wrappers
validate structure before operating.
"""

from __future__ import annotations

import itertools
import string
import weakref
from array import array
from typing import Any, Iterable, Optional

import numpy as np

from .config import DEFAULT_BALL_CAP, DEFAULT_RADIUS_CAP
from .errors import ConfigError, DomainError, LengthCapError, ModelMismatch, ResourceCapError

Element = Any  # model-specific payload, always hashable


def _as_int_tuple(seq: Iterable[str], what: str) -> tuple[int, ...]:
    """Integers parsed from the text fields of an element."""
    try:
        out = tuple(int(v) for v in seq)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a sequence of integers") from exc
    return out


def _int_entries(seq: Iterable[int], what: str) -> tuple[int, ...]:
    """A list of integers from a group spec: floats, booleans and numeric
    strings are refused, never truncated."""
    try:
        out = tuple(seq)
    except TypeError:
        out = None
    if out is None or any(type(v) is not int for v in out):
        raise ConfigError(f"{what} must be a sequence of integers")
    return out


# ---------------------------------------------------------------------------
# free words


def reduce_word(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence (cancel adjacent x, x^-1)."""
    out: list[int] = []
    for letter in letters:
        if letter == 0:
            raise DomainError("letter index 0 is not a generator")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def cyclic_reduce(word: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a reduced word as prefix * core * prefix^-1 with core cyclically reduced.

    Returns (prefix, core).
    """
    prefix: list[int] = []
    core = list(word)
    while len(core) >= 2 and core[0] == -core[-1]:
        prefix.append(core[0])
        core = core[1:-1]
    return tuple(prefix), tuple(core)


class GroupModel:
    """Common interface of the five exact group models."""

    # every relator has even length, so word length mod 2 is a homomorphism
    # and no Cayley edge joins two elements of one sphere
    even_relators = False
    # the Cayley graph on the standard generators is a tree: in a BFS from
    # e, an element's only neighbour in the ball so far is its parent
    tree = False

    def identity(self) -> Element:
        raise NotImplementedError

    def multiply(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def inverse(self, a: Element) -> Element:
        raise NotImplementedError

    def validate_element(self, a: Element) -> None:
        raise NotImplementedError

    def generator_elements(self) -> list[Element]:
        """Standard generators followed by their inverses, fixed order."""
        raise NotImplementedError

    def positive_generators(self) -> list[Element]:
        gens = self.generator_elements()
        return gens[: len(gens) // 2]

    def word_length(self, a: Element) -> int:
        """The exact word length of a on the standard generators.  Free,
        free abelian and finite groups always know it; a two-step nilpotent
        group reads it off a memo ball grown to at most DEFAULT_RADIUS_CAP,
        and past that raises LengthCapError; a free product sums its
        syllables' lengths, so it raises where a factor does."""
        raise NotImplementedError

    def torsion_order(self, a: Element) -> Optional[int]:
        raise NotImplementedError

    def element_str(self, a: Element) -> str:
        raise NotImplementedError

    def parse_element(self, text: str) -> Element:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------

    def conjugate(self, g: Element, u: Element) -> Element:
        """g^-1 * u * g."""
        return self.multiply(self.inverse(g), self.multiply(u, g))

    def commutes(self, a: Element, b: Element) -> bool:
        return self.multiply(a, b) == self.multiply(b, a)


# ---------------------------------------------------------------------------
# balls


class Ball:
    """All elements of word length <= radius, in BFS order, with the
    geodesic parent tree (``parents``, ``parent_gen``; -1 at the identity)
    that witnesses the lengths.  ``Ball(model)`` is {e}; ``grow`` extends it.

    ``nbr[i, s]`` is the index of ``elements[i]`` times the s-th generator,
    or -1 outside the ball: one int32 row per element the BFS has expanded,
    which is every element but the last sphere unless a finite group is
    exhausted.
    """

    def __init__(self, model: GroupModel):
        e = model.identity()
        self.model, self.radius = model, 0
        self.elements, self.index, self.lengths = [e], {e: 0}, [0]
        self.parents, self.parent_gen = [-1], [-1]
        self.nbr = self._table = np.empty((0, len(model.generator_elements())), dtype=np.int32)

    def __len__(self):
        return len(self.elements)

    def element_index(self, a: Element) -> int:
        idx = self.index.get(a)
        if idx is None:
            raise DomainError("element is not in the ball")
        return idx

    def grow(self, radius: int, cap: Optional[int] = None) -> "Ball":
        """Extend the BFS out to the given radius, one sphere at a time;
        past ``cap`` elements it raises ResourceCapError and is left at its
        last whole sphere."""
        while self.radius < radius and len(self.nbr) < len(self.elements):
            self.nbr = np.concatenate([self.nbr, self._expand(cap, grow=True)])
            self.radius += 1
        self.radius = max(self.radius, radius)  # an exhausted finite group stays whole
        return self

    def neighbour_table(self) -> np.ndarray:
        """``nbr`` with a row for every element, read-only and kept until the
        ball grows.  The last sphere, which the BFS has not expanded, is
        multiplied out, unless the model has even relators: then every
        neighbour of a last-sphere element u lies one sphere in, or outside
        the ball, and v * s = u gives u * s^-1 = v, so its rows are the
        transpose of the previous sphere's rows, with no products."""
        if len(self._table) != len(self.elements):
            start, k = len(self.nbr), self.nbr.shape[1]
            if self.model.even_relators:
                last = np.full((len(self.elements) - start, k), -1, dtype=np.int32)
                v, s = np.nonzero(self.nbr >= start)
                # generators are listed as s_1..s_m, then their inverses
                last[self.nbr[v, s] - start, (s + k // 2) % k] = v
            else:
                last = self._expand(None, grow=False)
            self._table = np.concatenate([self.nbr, last])
            self._table.flags.writeable = False
        return self._table

    def _expand(self, cap: Optional[int], grow: bool) -> np.ndarray:
        """Neighbour rows of the unexpanded elements.  With ``grow`` a
        product outside the ball joins it as part of the next sphere;
        without, it is recorded as -1.  The sphere is built aside and joins
        the ball only when whole, so a cap raised mid-sphere leaves the
        ball as it was."""
        if grow and self.model.tree:
            return self._expand_tree(cap)
        model, elements, index = self.model, self.elements, self.index
        gens = model.generator_elements()
        start, stop = len(self.nbr), len(elements)
        sphere: dict = {}  # new element -> its index
        parents, parent_gen = [], []
        rows = array("i")
        for ui, u in enumerate(elements[start:stop], start):
            for gi, s in enumerate(gens):
                w = model.multiply(u, s)
                vi = index.get(w, -1)
                if vi < 0 and grow:
                    vi = sphere.get(w, -1)
                    if vi < 0:
                        if cap is not None and stop + len(sphere) >= cap:
                            raise ResourceCapError(f"ball size cap {cap} exceeded at radius {self.radius + 1}")
                        vi = sphere[w] = stop + len(sphere)
                        parents.append(ui)
                        parent_gen.append(gi)
                rows.append(vi)
        elements += sphere
        index.update(sphere)
        self.parents += parents
        self.parent_gen += parent_gen
        self.lengths += [self.radius + 1] * len(sphere)
        return np.array(rows, dtype=np.int32).reshape(stop - start, len(gens))

    def _expand_tree(self, cap: Optional[int]) -> np.ndarray:
        """``_expand`` with ``grow`` when the Cayley graph is a tree.  The
        one neighbour of u in the ball so far is its parent, reached by the
        inverse of ``parent_gen[u]`` (generators are listed as s_1..s_m,
        then their inverses), and every other product is new: so the sphere
        is known in size before any product, and is made with no lookup."""
        elements, gens = self.elements, self.model.generator_elements()
        start, stop, k = len(self.nbr), len(self.elements), len(gens)
        back = np.array(self.parent_gen[start:stop])
        inward = back >= 0  # every element but e
        back[inward] = (back[inward] + k // 2) % k  # the generator back to the parent
        out = np.ones((stop - start, k), dtype=bool)
        out[inward, back[inward]] = False
        new = int(out.sum())
        if cap is not None and stop + new > cap:
            raise ResourceCapError(f"ball size cap {cap} exceeded at radius {self.radius + 1}")
        rows = np.empty(out.shape, dtype=np.int32)
        rows[out] = np.arange(stop, stop + new)
        rows[~out] = np.array(self.parents[start:stop])[inward]
        multiply = self.model.multiply
        elements += [
            multiply(u, s)
            for u, b in zip(elements[start:stop], back.tolist())
            for gi, s in enumerate(gens) if gi != b
        ]
        self.parents += np.repeat(np.arange(start, stop), out.sum(axis=1)).tolist()
        self.parent_gen += np.nonzero(out)[1].tolist()
        self.lengths += [self.radius + 1] * new
        self.index.update(zip(elements[stop:], range(stop, stop + new)))
        return rows


# ---------------------------------------------------------------------------
# free group


_LETTERS = string.ascii_lowercase


class FreeGroup(GroupModel):
    """Free group of given rank; elements are freely reduced words."""

    even_relators = tree = True

    def __init__(self, rank: int):
        if rank < 1:
            raise ConfigError("free group rank must be positive")
        self.rank = rank

    def __eq__(self, other):
        return isinstance(other, FreeGroup) and other.rank == self.rank

    def __hash__(self):
        return hash(("free", self.rank))

    def __repr__(self):
        return f"FreeGroup(rank={self.rank})"

    def identity(self):
        return ()

    def multiply(self, a, b):
        # both words are reduced, so only letters at the junction cancel
        k, m = 0, min(len(a), len(b))
        while k < m and a[-1 - k] == -b[k]:
            k += 1
        return a[:len(a) - k] + b[k:]

    def inverse(self, a):
        return tuple(-x for x in reversed(a))

    def validate_element(self, a):
        if not isinstance(a, tuple):
            raise ModelMismatch(f"free group element must be a tuple, got {type(a).__name__}")
        # one pass: every letter is range-checked before a cancelling pair
        # x, -x is reported
        cancels, prev = False, 0
        for x in a:
            if not isinstance(x, int) or x == 0 or abs(x) > self.rank:
                raise ModelMismatch(f"letter {x!r} out of range for rank {self.rank}")
            if x == -prev:
                cancels = True
            prev = x
        if cancels:
            raise ModelMismatch("free group element is not freely reduced")

    def generator_elements(self):
        return [(i,) for i in range(1, self.rank + 1)] + [(-i,) for i in range(1, self.rank + 1)]

    def word_length(self, a):
        return len(a)

    def torsion_order(self, a):
        return 1 if a == () else None

    def element_str(self, a):
        if not a:
            return "e"
        if self.rank <= 26:
            return "".join(_LETTERS[x - 1] if x > 0 else _LETTERS[-x - 1].upper() for x in a)
        return ".".join(str(x) for x in a)

    def parse_element(self, text):
        text = text.strip()
        if text in ("", "e", "1"):
            return ()
        if any(ch.isalpha() for ch in text) and "." not in text and "," not in text:
            letters = []
            for ch in text:
                if ch.islower():
                    letters.append(_LETTERS.index(ch) + 1)
                elif ch.isupper():
                    letters.append(-(_LETTERS.index(ch.lower()) + 1))
                else:
                    raise ConfigError(f"bad free-group letter {ch!r} in {text!r}")
            word = reduce_word(letters)
        else:
            word = reduce_word(_as_int_tuple(text.replace(".", ",").split(","), "word"))
        self.validate_element(word)
        return word

    def to_dict(self):
        return {"type": "free", "rank": self.rank}


# ---------------------------------------------------------------------------
# free abelian group


class FreeAbelian(GroupModel):
    """Z^rank with the standard basis; word length is the l1 norm."""

    even_relators = True

    def __init__(self, rank: int):
        if rank < 1:
            raise ConfigError("free abelian rank must be positive")
        self.rank = rank

    def __eq__(self, other):
        return isinstance(other, FreeAbelian) and other.rank == self.rank

    def __hash__(self):
        return hash(("abelian", self.rank))

    def __repr__(self):
        return f"FreeAbelian(rank={self.rank})"

    def identity(self):
        return (0,) * self.rank

    def multiply(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inverse(self, a):
        return tuple(-x for x in a)

    def validate_element(self, a):
        if not isinstance(a, tuple) or len(a) != self.rank or not all(isinstance(x, int) for x in a):
            raise ModelMismatch(f"free abelian element must be an int {self.rank}-tuple")

    def generator_elements(self):
        gens = []
        for i in range(self.rank):
            v = [0] * self.rank
            v[i] = 1
            gens.append(tuple(v))
        return gens + [self.inverse(g) for g in gens]

    def word_length(self, a):
        return sum(abs(x) for x in a)

    def torsion_order(self, a):
        return 1 if a == self.identity() else None

    def element_str(self, a):
        return ",".join(str(x) for x in a)

    def parse_element(self, text):
        text = text.strip()
        if text in ("e", ""):
            return self.identity()
        vec = _as_int_tuple(text.split(","), "vector")
        self.validate_element(vec)
        return vec

    def to_dict(self):
        return {"type": "free_abelian", "rank": self.rank}


# ---------------------------------------------------------------------------
# two-step nilpotent group in normal-form coordinates


class TwoStepNilpotent(GroupModel):
    """Torsion-free two-step nilpotent group on m base and n central generators.

    Elements are pairs (a, c): a the exponent vector of the base generators
    f_1..f_m in normal-form order, c the exponent vector of the central
    generators e_1..e_n.  Structure constants C[i][j] (n-vectors, C[i][j] =
    -C[j][i], zero diagonal) record the central correction picked up when
    f-letters cross during collection:

        (a, c) * (a', c') = (a + a', c + c' + q(a, a'))
        q(a, a')_t = sum_{i > j} a'[i] * a[j] * C[i][j][t]

    The cross term uses the second operand's higher-index letters against
    the first operand's lower-index letters; with the Heisenberg constants
    C[2][1] = (1) this realizes f1 f2 = (f2 f1) e1.  Associativity holds
    because q is bilinear, and is enforced by test.
    """

    def __init__(self, m: int, n: int, structure: Iterable[Iterable[Iterable[int]]]):
        if m < 1 or n < 1:
            raise ConfigError("two-step nilpotent model needs m >= 1 and n >= 1")
        self.m = m
        self.n = n
        C = tuple(tuple(_int_entries(vec, "structure constant") for vec in row) for row in structure)
        if len(C) != m or any(len(row) != m for row in C):
            raise ConfigError(f"structure constants must form an {m}x{m} array")
        for i in range(m):
            for j in range(m):
                if len(C[i][j]) != n:
                    raise ConfigError("each structure constant must be an n-vector")
                if i == j and any(C[i][j]):
                    raise ConfigError("structure constants must vanish on the diagonal")
                if tuple(-v for v in C[i][j]) != C[j][i]:
                    raise ConfigError("structure constants must be antisymmetric")
        self.C = C
        self._cmax = max(abs(v) for row in C for vec in row for v in vec)

    def __eq__(self, other):
        return (
            isinstance(other, TwoStepNilpotent)
            and other.m == self.m
            and other.n == self.n
            and other.C == self.C
        )

    def __hash__(self):
        return hash(("nilpotent", self.m, self.n, self.C))

    def __repr__(self):
        return f"TwoStepNilpotent(m={self.m}, n={self.n})"

    def identity(self):
        return ((0,) * self.m, (0,) * self.n)

    def _cross(self, a, a2):
        q = [0] * self.n
        for i in range(self.m):
            ai = a2[i]
            if ai == 0:
                continue
            for j in range(i):
                aj = a[j]
                if aj == 0:
                    continue
                coef = ai * aj
                cij = self.C[i][j]
                for t in range(self.n):
                    if cij[t]:
                        q[t] += coef * cij[t]
        return q

    def multiply(self, x, y):
        a, c = x
        a2, c2 = y
        q = self._cross(a, a2)
        return (
            tuple(u + v for u, v in zip(a, a2)),
            tuple(u + v + w for u, v, w in zip(c, c2, q)),
        )

    def inverse(self, x):
        a, c = x
        q = self._cross(a, a)
        return (tuple(-v for v in a), tuple(w - v for v, w in zip(c, q)))

    def validate_element(self, x):
        if (
            not isinstance(x, tuple)
            or len(x) != 2
            or not isinstance(x[0], tuple)
            or not isinstance(x[1], tuple)
            or len(x[0]) != self.m
            or len(x[1]) != self.n
            or not all(isinstance(v, int) for v in x[0] + x[1])
        ):
            raise ModelMismatch("two-step element must be a pair of int tuples (a, c)")

    def generator_elements(self):
        gens = []
        for i in range(self.m):
            a = [0] * self.m
            a[i] = 1
            gens.append((tuple(a), (0,) * self.n))
        for t in range(self.n):
            c = [0] * self.n
            c[t] = 1
            gens.append(((0,) * self.m, tuple(c)))
        return gens + [self.inverse(g) for g in gens]

    def word_length(self, a):
        """Read off a memo ball grown one sphere at a time, so a short
        element never forces a deep BFS.  Two bounds refuse an element
        longer than the cap before any BFS.  Every word for (x, c) has at
        least |x|_1 base letters.  And in a word of L letters each central
        letter moves c_t by at most 1, while each pair of base letters
        adds at most cmax = max |C[i][j][t]| to it, since q is bilinear and
        the inverse of a base generator has central part 0: so
        |c_t| <= L + cmax L(L-1)/2.  The memo holds at most DEFAULT_BALL_CAP
        elements; past that ResourceCapError is raised, and the memo stays
        at its last whole sphere."""
        cap = DEFAULT_RADIUS_CAP
        central_cap = cap + self._cmax * cap * (cap - 1) // 2
        if sum(map(abs, a[0])) > cap or max(map(abs, a[1])) > central_cap:
            raise LengthCapError(f"element has word length >= {cap + 1}, beyond the cap {cap}")
        b = getattr(self, "_length_ball", None)
        if b is None:  # a weak back-reference, so model and memo form no cycle
            b = self._length_ball = Ball(weakref.proxy(self))
        while a not in b.index and b.radius < cap:
            b.grow(b.radius + 1, DEFAULT_BALL_CAP)
        i = b.index.get(a)
        if i is None:
            raise LengthCapError(f"element has word length >= {cap + 1}, beyond the cap {cap}")
        return b.lengths[i]

    def torsion_order(self, a):
        return 1 if a == self.identity() else None

    def element_str(self, a):
        return ",".join(str(v) for v in a[0]) + "|" + ",".join(str(v) for v in a[1])

    def parse_element(self, text):
        text = text.strip()
        if text in ("e", ""):
            return self.identity()
        if "|" not in text:
            raise ConfigError("two-step element format is 'a1,..,am|c1,..,cn'")
        left, right = text.split("|", 1)
        elem = (_as_int_tuple(left.split(","), "base part"), _as_int_tuple(right.split(","), "central part"))
        self.validate_element(elem)
        return elem

    def to_dict(self):
        return {
            "type": "two_step_nilpotent",
            "m": self.m,
            "n": self.n,
            "C": [[list(vec) for vec in row] for row in self.C],
        }


def heisenberg_group() -> TwoStepNilpotent:
    """The discrete Heisenberg group: m=2, n=1, C[2][1] = (1)."""
    return TwoStepNilpotent(2, 1, [[(0,), (-1,)], [(1,), (0,)]])


# ---------------------------------------------------------------------------
# finite group from a multiplication table


class FiniteGroup(GroupModel):
    """Finite group given by a multiplication table over indices 0..order-1.

    Index 0 is the identity.  The table must be a Latin square with row 0
    and column 0 the identity permutation and two-sided inverses.
    """

    def __init__(
        self,
        table: Iterable[Iterable[int]],
        names: Optional[Iterable[str]] = None,
        generators: Optional[Iterable[int]] = None,
        label: Optional[str] = None,
    ):
        tbl = tuple(_int_entries(row, "table row") for row in table)
        order = len(tbl)
        if order < 1 or any(len(row) != order for row in tbl):
            raise ConfigError("multiplication table must be square and nonempty")
        full = frozenset(range(order))
        for i, row in enumerate(tbl):
            if frozenset(row) != full:
                raise ConfigError(f"table row {i} is not a permutation")
        for j in range(order):
            if frozenset(tbl[i][j] for i in range(order)) != full:
                raise ConfigError(f"table column {j} is not a permutation")
        if any(tbl[0][j] != j for j in range(order)) or any(tbl[i][0] != i for i in range(order)):
            raise ConfigError("index 0 must act as the identity")
        inv = [-1] * order
        for i in range(order):
            for j in range(order):
                if tbl[i][j] == 0:
                    if tbl[j][i] != 0:
                        raise ConfigError(f"element {i} has no two-sided inverse")
                    inv[i] = j
        self.order = order
        self.table = tbl
        self.inv_table = tuple(inv)
        self.names = tuple(names) if names is not None else None
        if self.names is not None:
            if len(self.names) != order:
                raise ConfigError("names must match the group order")
            # parse_element strips its text and reads a name before an index
            plain = all(isinstance(x, str) and x == x.strip() for x in self.names)
            if not plain or len(set(self.names)) != order:
                raise ConfigError("names must be distinct strings without surrounding whitespace")
        if label is not None and not isinstance(label, str):
            raise ConfigError("label must be a string")
        if generators is None:
            gens = tuple(range(1, order))
        else:
            gens = _int_entries(generators, "generators")
            if any(g <= 0 or g >= order for g in gens):
                raise ConfigError("generator indices must be nonzero elements")
        self.gens = gens
        self.label = label
        b = Ball(self).grow(order)
        if len(b) != order:
            raise ConfigError("declared generators do not generate the group")
        self._lengths = dict(zip(b.elements, b.lengths))

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and other.table == self.table and other.gens == self.gens

    def __hash__(self):
        return hash(("finite", self.table, self.gens))

    def __repr__(self):
        return self.label or f"FiniteGroup(order={self.order})"

    def identity(self):
        return 0

    def multiply(self, a, b):
        return self.table[a][b]

    def inverse(self, a):
        return self.inv_table[a]

    def validate_element(self, a):
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise ModelMismatch(f"finite group element must be an index in [0, {self.order})")

    def generator_elements(self):
        return list(self.gens) + [self.inv_table[g] for g in self.gens]

    def word_length(self, a):
        return self._lengths[a]

    def torsion_order(self, a):
        k, power = 1, a
        while power != 0:
            power = self.table[power][a]
            k += 1
        return k

    def element_str(self, a):
        if self.names is not None:
            return self.names[a]
        return str(a)

    def parse_element(self, text):
        text = text.strip()
        if self.names is not None and text in self.names:
            return self.names.index(text)
        if text == "e":
            return 0
        try:
            idx = int(text)
        except ValueError as exc:
            raise ConfigError(f"unknown element {text!r}") from exc
        self.validate_element(idx)
        return idx

    def to_dict(self):
        out = {"type": "finite", "table": [list(row) for row in self.table], "generators": list(self.gens)}
        if self.names is not None:
            out["names"] = list(self.names)
        if self.label:
            out["label"] = self.label
        return out


def cyclic_group(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["e"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    gens = [1] if n > 1 else None
    return FiniteGroup(table, names=names, generators=gens, label=f"Z{n}")


def symmetric_group_3() -> FiniteGroup:
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # apply p, then q
        return tuple(q[p[i]] for i in range(3))

    table = [[index[compose(p, q)] for q in perms] for p in perms]

    def cycle_name(p):
        if p == (0, 1, 2):
            return "e"
        moved = [i for i in range(3) if p[i] != i]
        if len(moved) == 2:
            return f"({moved[0] + 1}{moved[1] + 1})"
        return "(123)" if p[0] == 1 else "(132)"

    names = [cycle_name(p) for p in perms]
    gens = [index[(1, 0, 2)], index[(1, 2, 0)]]  # a transposition and a 3-cycle
    return FiniteGroup(table, names=names, generators=gens, label="S3")


BUILTIN_GROUPS = {
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z4": lambda: cyclic_group(4),
    "Z5": lambda: cyclic_group(5),
    "Z6": lambda: cyclic_group(6),
    "S3": symmetric_group_3,
}


# ---------------------------------------------------------------------------
# free product


class FreeProduct(GroupModel):
    """Free product of the factor models; elements are alternating syllables."""

    def __init__(self, factors: Iterable[GroupModel]):
        self.factors = tuple(factors)
        if not self.factors:
            raise ConfigError("a free product needs at least one factor")

    def __eq__(self, other):
        return isinstance(other, FreeProduct) and other.factors == self.factors

    def __hash__(self):
        return hash(("product",) + self.factors)

    def __repr__(self):
        return "FreeProduct(" + ", ".join(repr(f) for f in self.factors) + ")"

    def identity(self):
        return ()

    def multiply(self, x, y):
        out = list(x)
        for idx, payload in y:
            if out and out[-1][0] == idx:
                factor = self.factors[idx]
                merged = factor.multiply(out[-1][1], payload)
                out.pop()
                if merged != factor.identity():
                    out.append((idx, merged))
            else:
                out.append((idx, payload))
        return tuple(out)

    def inverse(self, x):
        return tuple((idx, self.factors[idx].inverse(p)) for idx, p in reversed(x))

    def validate_element(self, x):
        if not isinstance(x, tuple):
            raise ModelMismatch("free product element must be a tuple of syllables")
        prev = -1
        for syl in x:
            if not isinstance(syl, tuple) or len(syl) != 2:
                raise ModelMismatch("each syllable must be a (factor, payload) pair")
            idx, payload = syl
            if not isinstance(idx, int) or not 0 <= idx < len(self.factors):
                raise ModelMismatch(f"factor index {idx!r} out of range")
            if idx == prev:
                raise ModelMismatch("adjacent syllables share a factor; element not in normal form")
            factor = self.factors[idx]
            factor.validate_element(payload)
            if payload == factor.identity():
                raise ModelMismatch("identity syllables are not allowed in normal form")
            prev = idx

    def generator_elements(self):
        pos = [(i, g) for i, f in enumerate(self.factors) for g in f.positive_generators()]
        return [((i, g),) for i, g in pos] + [
            ((i, self.factors[i].inverse(g)),) for i, g in pos
        ]

    def word_length(self, a):
        # syllable normal forms are geodesic for the disjoint union of the
        # factor generating sets, so lengths add over syllables
        return sum(self.factors[idx].word_length(payload) for idx, payload in a)

    def cyclic_syllable_reduce(self, x):
        """Split x as prefix * core * prefix^-1 with core cyclically reduced.

        Returns (prefix, core); core is either empty, a single syllable, or
        has first and last syllables in distinct factors.
        """
        prefix = ()
        core = x
        while len(core) >= 2 and core[0][0] == core[-1][0]:
            head = (core[0],)
            prefix = self.multiply(prefix, head)
            core = self.multiply(self.multiply(self.inverse(head), core), head)
        return prefix, core

    def torsion_order(self, x):
        if x == ():
            return 1
        _, core = self.cyclic_syllable_reduce(x)
        if len(core) == 1:
            idx, payload = core[0]
            return self.factors[idx].torsion_order(payload)
        # cyclically reduced with >= 2 syllables: infinite order
        return None

    def element_str(self, a):
        if not a:
            return "e"
        return "*".join(f"{idx}:{self.factors[idx].element_str(p)}" for idx, p in a)

    def parse_element(self, text):
        text = text.strip()
        if text in ("e", ""):
            return ()
        syllables = []
        for part in text.split("*"):
            if ":" not in part:
                raise ConfigError("free product element format is 'factor:payload*factor:payload...'")
            idx_str, payload_str = part.split(":", 1)
            try:
                idx = int(idx_str)
            except ValueError:
                raise ConfigError(f"factor index {idx_str!r} is not an integer") from None
            if not 0 <= idx < len(self.factors):
                raise ConfigError(f"factor index {idx} out of range")
            payload = self.factors[idx].parse_element(payload_str)
            if payload != self.factors[idx].identity():
                syllables.append((idx, payload))
        elem = self.multiply((), tuple(syllables))
        self.validate_element(elem)
        return elem

    def to_dict(self):
        return {"type": "free_product", "factors": [f.to_dict() for f in self.factors]}


# ---------------------------------------------------------------------------
# model (de)serialization


def _field(data: dict, name: str, typ: type, required: bool = True):
    """data[name], which must be a JSON integer (not a boolean) or list as
    ``typ`` says; an optional field that is absent or null is None."""
    if not required and data.get(name) is None:
        return None
    value = data[name]
    if type(value) is not typ:
        what = "an integer" if typ is int else "a list"
        raise ConfigError(
            f"group spec of type {data['type']!r} needs {what} in field {name!r}, not {value!r}"
        )
    return value


def model_from_dict(data) -> GroupModel:
    """Build a group model from its JSON-style description."""
    if isinstance(data, str):
        if data in BUILTIN_GROUPS:
            return BUILTIN_GROUPS[data]()
        raise ConfigError(f"unknown builtin group {data!r}")
    if not isinstance(data, dict) or "type" not in data:
        raise ConfigError("group spec must be a builtin name or an object with a 'type' field")
    kind = data["type"]
    try:
        if kind == "free":
            return FreeGroup(_field(data, "rank", int))
        if kind == "free_abelian":
            return FreeAbelian(_field(data, "rank", int))
        if kind == "two_step_nilpotent":
            m, n, C = _field(data, "m", int), _field(data, "n", int), _field(data, "C", list)
            if any(type(row) is not list for row in C):
                raise ConfigError(f"group spec of type {kind!r} needs a list of lists in field 'C'")
            return TwoStepNilpotent(m, n, C)
        if kind == "finite":
            if "builtin" in data:
                return model_from_dict(data["builtin"])
            return FiniteGroup(
                _field(data, "table", list),
                names=_field(data, "names", list, required=False),
                generators=_field(data, "generators", list, required=False),
                label=data.get("label"),
            )
        if kind == "free_product":
            return FreeProduct([model_from_dict(f) for f in _field(data, "factors", list)])
    except KeyError as exc:
        raise ConfigError(f"group spec of type {kind!r} is missing field {exc.args[0]!r}") from exc
    raise ConfigError(f"unknown group type {kind!r}")
