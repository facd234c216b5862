"""Sp_4(F_2) acting on totally non-orthogonal 5-subsets of F_2^4.

Vectors are 4-bit masks over the standard symplectic basis e1, f1, e2, f2
(bits 0..3), with pairing <u, v> = u1 v2 + u2 v1 + u3 v4 + u4 v3 (mod 2).
A totally non-orthogonal subset is a 5-element set of nonzero vectors whose
pairwise pairings are all 1; there are exactly six, and the action of the
symplectic group on them is a bijection onto Sym(6).

Matrices act on row vectors, v |-> v*M, so the permutation map is a
homomorphism in left-to-right composition order: perm(A*B) = perm(A) then
perm(B).  Permutations are stored as tuples p with p[i] = image of i
(0-based); "then" composition is compose(p, q)[i] = q[p[i]].

The canonical labels 1..6 reproduce a fixed printed enumeration of the six
subsets (see CANONICAL_SUBSETS); enumeration order alone is tie-broken by
sorted coordinate masks and then matched against that list.

The group is enumerated row by row, each row constrained by its pairings
with the rows before it, rather than by testing all 2^16 matrices; the
isomorphism check still visits every one of its 720 elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import DomainError, InputError

DIM = 4


def pairing(u: int, v: int) -> int:
    """Standard symplectic pairing on bitmask vectors."""
    return (
        ((u >> 0) & (v >> 1) & 1)
        ^ ((u >> 1) & (v >> 0) & 1)
        ^ ((u >> 2) & (v >> 3) & 1)
        ^ ((u >> 3) & (v >> 2) & 1)
    )


_BASIS_NAMES = ("e1", "f1", "e2", "f2")


def vector_name(v: int) -> str:
    parts = [nm for i, nm in enumerate(_BASIS_NAMES) if (v >> i) & 1]
    return "+".join(parts) if parts else "0"


def vector_of_name(text: str) -> int:
    v = 0
    for part in text.split("+"):
        part = part.strip()
        if part == "0":
            continue
        if part not in _BASIS_NAMES:
            raise InputError(f"unknown basis vector {part!r}")
        v |= 1 << _BASIS_NAMES.index(part)
    return v


def _subset(*names: str) -> frozenset[int]:
    return frozenset(vector_of_name(nm) for nm in names)


# the printed enumeration that fixes the labels 1..6
CANONICAL_SUBSETS: tuple[frozenset[int], ...] = (
    _subset("e1", "f1", "e1+f1+e2", "e1+f1+f2", "e1+f1+e2+f2"),
    _subset("e2", "f2", "e2+f2+e1", "e2+f2+f1", "e2+f2+e1+f1"),
    _subset("e1", "e1+f1", "f1+e2", "f1+f2", "f1+e2+f2"),
    _subset("e2", "e2+f2", "f2+e1", "f2+f1", "f2+e1+f1"),
    _subset("f2", "e1+e2", "e1+f1+e2", "e2+f2", "f1+e2"),
    _subset("f1", "e1+e2", "e2+f2+e1", "e1+f1", "f2+e1"),
)


_SUBSET_CACHE: list[frozenset[int]] | None = None


def totally_nonorthogonal_subsets() -> list[frozenset[int]]:
    """Exhaustively enumerate the totally non-orthogonal 5-subsets of F_2^4,
    returned in canonical label order 1..6."""
    global _SUBSET_CACHE
    if _SUBSET_CACHE is not None:
        return _SUBSET_CACHE
    found = []
    vectors = [v for v in range(1, 16)]
    for combo in combinations(vectors, 5):
        if all(pairing(u, v) == 1 for u, v in combinations(combo, 2)):
            found.append(frozenset(combo))
    found.sort(key=lambda s: sorted(s))
    if len(found) != len(CANONICAL_SUBSETS):
        raise DomainError(f"expected {len(CANONICAL_SUBSETS)} subsets, found {len(found)}")
    if set(found) != set(CANONICAL_SUBSETS):
        raise DomainError("enumerated subsets do not match the canonical list")
    _SUBSET_CACHE = list(CANONICAL_SUBSETS)
    return _SUBSET_CACHE


# ---------------------------------------------------------------------------
# matrices over F_2, acting on row vectors


SympMatrix = tuple[int, int, int, int]  # rows as bitmasks


def apply_matrix(v: int, m: SympMatrix) -> int:
    """Row-vector action v |-> v*M: the image is the XOR of the rows of M
    selected by the bits of v."""
    out = 0
    for i in range(DIM):
        if (v >> i) & 1:
            out ^= m[i]
    return out


def matrix_from_rows(rows) -> SympMatrix:
    if len(rows) != DIM or any(len(r) != DIM for r in rows):
        raise InputError("need a 4x4 matrix")
    for r in rows:
        for x in r:
            if x not in (0, 1):
                raise InputError(f"matrix entries must be 0 or 1, got {x}")
    return tuple(sum(x << j for j, x in enumerate(r)) for r in rows)


def parse_matrix(text: str) -> SympMatrix:
    """Parse "0,0,1,0;0,0,0,1;1,0,0,0;0,1,0,0"."""
    rows = []
    for chunk in text.split(";"):
        try:
            rows.append([int(x) for x in chunk.split(",")])
        except ValueError as exc:
            raise InputError(f"bad matrix chunk {chunk!r}") from exc
    return matrix_from_rows(rows)


SWAP_MATRIX: SympMatrix = matrix_from_rows(
    [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
)


# <e_i, e_j> for the six basis pairs i < j
_BASIS_GRAM = tuple(
    (i, j, pairing(1 << i, 1 << j)) for i, j in combinations(range(DIM), 2)
)


def is_symplectic(m: SympMatrix) -> bool:
    """Whether v |-> v*M preserves the pairing.

    The images of the basis vectors are the rows of M, and the form is
    alternating, so the Gram pairings of the rows for i < j decide.  A map
    that preserves a nondegenerate form is injective, hence invertible.
    """
    return all(pairing(m[i], m[j]) == g for i, j, g in _BASIS_GRAM)


def mat_mul(a: SympMatrix, b: SympMatrix) -> SympMatrix:
    """Row-convention product: (v*a)*b = v*(mat_mul(a, b))."""
    return tuple(apply_matrix(row, b) for row in a)


# ---------------------------------------------------------------------------
# permutations


Permutation = tuple[int, ...]


def compose_lr(p: Permutation, q: Permutation) -> Permutation:
    """Left-to-right composition: apply p, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def _cycles(p: Permutation) -> list[list[int]]:
    """The cycles of p, fixed points included, each starting at its least
    element, in increasing order of that element."""
    seen = [False] * len(p)
    cycles = []
    for i in range(len(p)):
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        if cyc:
            cycles.append(cyc)
    return cycles


def perm_sign(p: Permutation) -> int:
    # a k-cycle is a product of k - 1 transpositions
    return -1 if (len(p) - len(_cycles(p))) % 2 else 1


def cycle_notation(p: Permutation) -> str:
    # 1-based labels, fixed points left out
    cycles = ["(" + "".join(str(j + 1) for j in c) + ")" for c in _cycles(p) if len(c) > 1]
    return "".join(cycles) if cycles else "()"


def cycle_lengths(p: Permutation) -> list[int]:
    return sorted(len(c) for c in _cycles(p))


# each labeled subset as a 16-bit mask of its vectors, and its label
_SUBSET_VECTORS = tuple(tuple(sorted(s)) for s in CANONICAL_SUBSETS)
_LABEL_OF_MASK = {sum(1 << v for v in s): i for i, s in enumerate(CANONICAL_SUBSETS)}


def phi(m: SympMatrix) -> Permutation:
    """The permutation of the six labeled subsets induced by v |-> v*M.

    The images of all 16 vectors come one XOR each: once img holds v*M for
    every v below 2^i, the image of v + 2^i is img[v] plus row i.  An image
    subset is looked up as the 16-bit mask of its vectors."""
    if not is_symplectic(m):
        raise DomainError("matrix does not preserve the symplectic form")
    img = [0]
    for row in m:
        img += [x ^ row for x in img]
    out = []
    for vectors in _SUBSET_VECTORS:
        mask = 0
        for v in vectors:
            mask |= 1 << img[v]
        label = _LABEL_OF_MASK.get(mask)
        if label is None:
            raise DomainError("image of a subset is not a subset; form not preserved")
        out.append(label)
    return tuple(out)


def _bits(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def all_symplectic_matrices() -> list[SympMatrix]:
    """Sp_4(F_2) in lexicographic order of its rows, by a row-by-row search.

    M is symplectic exactly when its rows have the basis Gram pairings (see
    is_symplectic), so row j ranges only over the vectors whose pairings
    with rows 0..j-1 are those values: the intersection of one 16-bit mask
    per earlier row, walked from its lowest bit.  The partial matrices are
    extended in order, so the result is the sublist of all 2^16 matrices,
    in their order, that is_symplectic keeps."""
    gram = {(i, j): g for i, j, g in _BASIS_GRAM}
    # paired[u][g]: the mask of the vectors v with <u, v> = g
    paired = [[0, 0] for _ in range(1 << DIM)]
    for u in range(1 << DIM):
        for v in range(1 << DIM):
            paired[u][pairing(u, v)] |= 1 << v
    partial: list[tuple[int, ...]] = [()]
    for j in range(DIM):
        extended = []
        for rows in partial:
            allowed = (1 << (1 << DIM)) - 1  # every vector
            for i, r in enumerate(rows):
                allowed &= paired[r][gram[i, j]]
            extended.extend(rows + (v,) for v in _bits(allowed))
        partial = extended
    return partial


@dataclass
class IsomorphismReport:
    group_order: int
    kernel_trivial: bool
    image_is_full_symmetric: bool
    homomorphism_checked_pairs: int
    has_transposition: bool
    has_six_cycle: bool

    @property
    def is_isomorphism(self) -> bool:
        return (
            self.group_order == 720
            and self.kernel_trivial
            and self.image_is_full_symmetric
        )


def verify_isomorphism(random_pairs: int = 10000, seed: int = 2) -> IsomorphismReport:
    """Enumerate Sp_4(F_2), check order 720, injectivity of the permutation
    map, surjectivity onto Sym(6), and the homomorphism law on random pairs,
    whose count must be at least 0."""
    import random as _random

    if random_pairs < 0:
        raise InputError(f"--pairs must be >= 0, got {random_pairs}")

    group = all_symplectic_matrices()
    perms = {}
    for m in group:
        perms[m] = phi(m)
    kernel_trivial = sum(1 for p in perms.values() if all(p[i] == i for i in range(6))) == 1
    image = set(perms.values())
    full = len(image) == 720 and len(group) == 720
    rng = _random.Random(seed)
    checked = 0
    for _ in range(random_pairs):
        a = group[rng.randrange(len(group))]
        b = group[rng.randrange(len(group))]
        if phi(mat_mul(a, b)) != compose_lr(perms[a], perms[b]):
            raise DomainError("permutation map failed the homomorphism law")
        checked += 1
    has_transposition = any(
        sorted(cycle_lengths(p)) == [1, 1, 1, 1, 2] for p in image
    )
    has_six_cycle = any(cycle_lengths(p) == [6] for p in image)
    return IsomorphismReport(
        group_order=len(group),
        kernel_trivial=kernel_trivial,
        image_is_full_symmetric=full,
        homomorphism_checked_pairs=checked,
        has_transposition=has_transposition,
        has_six_cycle=has_six_cycle,
    )
