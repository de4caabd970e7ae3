"""Permutations of {1..n} and explicitly enumerated subgroups of Sym(n).

A permutation is stored in one-line notation: ``Perm((2, 3, 1))`` maps
1 -> 2, 2 -> 3, 3 -> 1.  Composition follows the right-to-left convention
``(p * q)(i) = p(q(i))``, i.e. the right factor is applied first.

Subgroups are small (n <= ~6 in practice), so they are materialized as the
full element set closed under composition and inverse.
"""

from __future__ import annotations


class Perm:
    """Element of Sym(n) in one-line notation; 1-indexed."""

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images!r}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_hash", hash(images))

    @classmethod
    def _trusted(cls, images: tuple) -> "Perm":
        """Perm from a tuple already known to be a permutation (a product or
        an inverse of Perms), without the check in ``__init__``."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        object.__setattr__(p, "_hash", hash(images))
        return p

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls._trusted(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        # (self * other)(i) = self(other(i)): other acts first.
        images = self.images
        if len(images) != len(other.images):
            raise ValueError("arity mismatch")
        return Perm._trusted(tuple([images[j - 1] for j in other.images]))

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Perm._trusted(tuple(inv))

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, len(self.images) + 1))

    def order(self) -> int:
        k, p = 1, self
        while not p.is_identity():
            p = p * self
            k += 1
        return k

    def act_word(self, word):
        """Apply letter-wise to a word over {1..n}."""
        return tuple(self.images[c - 1] for c in word)

    def orbits(self):
        """Orbits on {1..n}, each a tuple in cycle order, sorted by minimum."""
        seen, out = set(), []
        for i in range(1, self.n + 1):
            if i in seen:
                continue
            orbit, j = [], i
            while j not in seen:
                seen.add(j)
                orbit.append(j)
                j = self(j)
            out.append(tuple(orbit))
        return out

    def __pow__(self, k: int) -> "Perm":
        if k < 0:
            return self.inverse() ** (-k)
        p = Perm.identity(self.n)
        base = self
        while k:
            if k & 1:
                p = p * base
            base = base * base
            k >>= 1
        return p

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return f"Perm({list(self.images)})"


def _closure(n, generators):
    elems = {Perm.identity(n)}
    frontier = list(elems)
    gens = [g for g in generators] + [g.inverse() for g in generators]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = a * g
                if b not in elems:
                    elems.add(b)
                    new.append(b)
        frontier = new
    return frozenset(elems)


class Subgroup:
    """A subgroup H <= Sym(n), enumerated in full.

    Carries membership (`_members` maps each element to the subgroup's own
    instance of it, which elements store as their labels), per-element
    conjugacy classes, canonical class representatives (minimum image tuple
    in the class), and the per-class caches of the free-loop layer: the
    orbit refinement table and the memo of `closed._loop_class`.
    """

    __slots__ = (
        "n",
        "generators",
        "elements",
        "_members",
        "_class_rep",
        "_refinements",
        "_loop_classes",
    )

    def __init__(self, n: int, generators=()):
        # Repeated generators are dropped, keeping the first of each; for
        # n = 2 the swap and the cycle of `symmetric` coincide.
        generators = tuple(dict.fromkeys(generators))
        for g in generators:
            if g.n != n:
                raise ValueError(f"generator arity {g.n} != {n}")
        self.n = n
        self.generators = generators
        self.elements = _closure(n, generators)
        self._members = {p: p for p in self.elements}
        self._class_rep = {}
        self._refinements = {}
        self._loop_classes = {}

    @classmethod
    def trivial(cls, n: int) -> "Subgroup":
        return cls(n)

    @classmethod
    def cyclic(cls, n: int) -> "Subgroup":
        return cls(n, [Perm(tuple(range(2, n + 1)) + (1,))])

    @classmethod
    def symmetric(cls, n: int) -> "Subgroup":
        if n == 1:
            return cls(n)
        swap = Perm((2, 1) + tuple(range(3, n + 1)))
        cycle = Perm(tuple(range(2, n + 1)) + (1,))
        return cls(n, [swap, cycle])

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self.elements

    def __iter__(self):
        return iter(sorted(self.elements))

    def conjugacy_class(self, p: Perm):
        if p not in self.elements:
            raise ValueError(f"{p!r} not in subgroup")
        return frozenset(a * p * a.inverse() for a in self.elements)

    def class_rep(self, p: Perm) -> Perm:
        """Canonical (minimal) representative of p's H-conjugacy class."""
        rep = self._class_rep.get(p)
        if rep is None:
            rep = min(self.conjugacy_class(p))
            for q in self.conjugacy_class(p):
                self._class_rep[q] = rep
        return rep

    def are_conjugate(self, p: Perm, q: Perm) -> bool:
        return self.class_rep(p) == self.class_rep(q)

    def refinement(self, p: Perm):
        """Sorted (L, class_rep(p^L)) over the orbits of p, L the orbit size.

        A free loop (w, p) refines into the loops (w * L, p^L), one per
        orbit; the row depends only on p's H-conjugacy class.
        """
        rep = self.class_rep(p)
        row = self._refinements.get(rep)
        if row is None:
            row = tuple(sorted((len(o), self.class_rep(rep ** len(o))) for o in rep.orbits()))
            self._refinements[rep] = row
        return row

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Subgroup)
            and self.n == other.n
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.n, self.elements))

    def __repr__(self):
        gens = [list(g.images) for g in self.generators]
        return f"Subgroup(n={self.n}, generators={gens}, order={self.order})"
