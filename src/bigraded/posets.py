"""Finite posets, order complexes, reduced homology, and executable checkers
for the poset-map connectivity theorem and the nerve criterion.

Connectivity here is the homological surrogate: "homologically n-connected"
means reduced homology vanishes through degree n (for a map: reduced homology
of the mapping cone of the induced chain map vanishes through degree n).
True topological n-connectedness also constrains the fundamental group, which
a finite computation cannot decide; reports are labelled accordingly.

Conventions: the empty complex has connectivity -2 (its reduced homology is
the coefficient ring in degree -1); "(-1)-connected" means nonempty;
"m-connected" for m <= -2 is vacuously true.  A poset that is acyclic through
every degree its order complex carries gets the infinity sentinel.

Homology over F2, Q and Z, and of the mapping cone, is one routine: the
augmented chain complex (the empty chain in degree -1) gives each boundary
as face lists, and a rank backend reduces them: bitmask elimination over F2,
which the randomized campaigns use, `exactla.rank` over Q, and the Smith
form over Z, which also yields torsion.  Only chains short enough to
influence the requested degrees are ever enumerated.

Connectivity is computed on the core: beat points are removed first, which
keeps the homotopy type of the order complex (Stong, *Finite topological
spaces*, Trans. AMS 123 (1966)).  A poset whose core is one point, such as a
cone, is contractible and needs no homology at all.  ``subposet`` and ``op``
trust their parent: they compress its relation masks and do not validate
again; only ``FinitePoset(names, pairs)`` checks outside input.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field

from .errors import DomainError, InputError
from . import exactla
from .exactla import Matrix, QQ

INF = math.inf


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class FinitePoset:
    """A finite poset on named elements; relations as bitmasks."""

    def __init__(self, names, le_pairs):
        self.names = tuple(names)
        self.n = len(self.names)
        if len(set(self.names)) != self.n:
            raise InputError("duplicate poset elements")
        self.idx = {nm: i for i, nm in enumerate(self.names)}
        below = [1 << i for i in range(self.n)]  # below[i]: mask of j <= i
        for a, b in le_pairs:
            if a not in self.idx or b not in self.idx:
                raise InputError(f"relation on undeclared element: {a} < {b}")
            below[self.idx[b]] |= 1 << self.idx[a]
        changed = True
        while changed:
            changed = False
            for i in range(self.n):
                acc = below[i]
                for j in _bits(acc):
                    acc |= below[j]
                if acc != below[i]:
                    below[i] = acc
                    changed = True
        self.below = below
        for i in range(self.n):
            for j in range(self.n):
                if i != j and (below[i] >> j) & 1 and (below[j] >> i) & 1:
                    raise InputError(
                        f"not a partial order: {self.names[i]} and {self.names[j]} "
                        "are mutually comparable"
                    )
        self.above = [0] * self.n
        for i in range(self.n):
            for j in _bits(below[i]):
                self.above[j] |= 1 << i

    @classmethod
    def _trusted(cls, names, below, above) -> "FinitePoset":
        """A poset whose masks come from a valid poset: no closure, no
        antisymmetry scan."""
        p = cls.__new__(cls)
        p.names = names
        p.n = len(names)
        p.idx = {nm: i for i, nm in enumerate(names)}
        p.below = below
        p.above = above
        return p

    def leq(self, a, b) -> bool:
        return bool((self.below[self.idx[b]] >> self.idx[a]) & 1)

    def lt_mask(self, i: int) -> int:
        return self.below[i] & ~(1 << i)

    def gt_mask(self, i: int) -> int:
        return self.above[i] & ~(1 << i)

    def subposet(self, mask: int) -> "FinitePoset":
        """The induced subposet on the elements of ``mask``, in the parent's
        order; the parent's masks are trusted, not re-validated."""
        mask &= (1 << self.n) - 1
        keep = _bits(mask)
        new_bit = {1 << i: 1 << k for k, i in enumerate(keep)}

        def compress(m):
            m &= mask
            out = 0
            while m:
                low = m & -m
                m ^= low
                out |= new_bit[low]
            return out

        # names from a list, not a generator: generator-built tuples are
        # resized as they grow, which raised the campaigns' peak RSS by ~0.9 MB
        return FinitePoset._trusted(
            tuple([self.names[i] for i in keep]),
            [compress(self.below[i]) for i in keep],
            [compress(self.above[i]) for i in keep],
        )

    def op(self) -> "FinitePoset":
        return FinitePoset._trusted(self.names, list(self.above), list(self.below))

    def cover_pairs(self):
        """Transitive reduction, for serialization."""
        out = []
        for j in range(self.n):
            lower = self.lt_mask(j)
            for i in _bits(lower):
                between = lower & self.gt_mask(i)
                if not between:
                    out.append((self.names[i], self.names[j]))
        return sorted(out)

    def __repr__(self):
        return f"FinitePoset({self.n} elements)"


def poset_from_text(text: str) -> FinitePoset:
    """Poset file: lines ``element`` and ``a < b``."""
    names, pairs = [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "<" in line:
            a, b = (s.strip() for s in line.split("<", 1))
            if not a or not b:
                raise InputError(f"bad relation line: {raw!r}")
            pairs.append((a, b))
            for nm in (a, b):
                if nm not in names:
                    names.append(nm)
        else:
            if line not in names:
                names.append(line)
    return FinitePoset(sorted(names), pairs)


def subsets_poset(base_size: int) -> FinitePoset:
    """Proper nonempty subsets of {0..base_size-1}, ordered by inclusion."""
    elems = [frozenset_to_name(s, base_size) for s in range(1, (1 << base_size) - 1)]
    pairs = []
    for s in range(1, (1 << base_size) - 1):
        for t in range(1, (1 << base_size) - 1):
            if s != t and s & t == s:
                pairs.append((frozenset_to_name(s, base_size), frozenset_to_name(t, base_size)))
    return FinitePoset(sorted(elems), pairs)


def frozenset_to_name(mask: int, base_size: int) -> str:
    return "{" + ",".join(str(i) for i in range(base_size) if (mask >> i) & 1) + "}"


def chain_poset(length: int) -> FinitePoset:
    names = [f"c{i}" for i in range(length)]
    return FinitePoset(names, [(names[i], names[i + 1]) for i in range(length - 1)])


def antichain_poset(size: int) -> FinitePoset:
    return FinitePoset([f"a{i}" for i in range(size)], [])


# ---------------------------------------------------------------------------
# order complexes and homology


def order_chains(p: FinitePoset, max_len: int | None = None):
    """Chains of the poset grouped by length; chains[k] holds the length-(k+1)
    totally ordered tuples, i.e. the k-simplices of the order complex.
    Each level extends the previous one's tuples by the elements above their
    top, so the levels come out sorted."""
    limit = p.n if max_len is None else min(max_len, p.n)
    if limit <= 0:
        return []
    succ = [_bits(p.gt_mask(i)) for i in range(p.n)]
    by_len = [[(i,) for i in range(p.n)]]
    while len(by_len) < limit:
        by_len.append([c + (j,) for c in by_len[-1] for j in succ[c[-1]]])
    return by_len


def core(p: FinitePoset) -> int:
    """Mask of a core of ``p``: beat points removed until none is left.

    ``x`` is an up beat point when its strict up-set has a minimum, a down
    beat point when its strict down-set has a maximum.  Removing one keeps
    the homotopy type of the order complex (Stong, *Finite topological
    spaces*, Trans. AMS 123 (1966)), so a cone has a one-point core."""
    alive = (1 << p.n) - 1
    changed = True
    while changed:
        changed = False
        for x in _bits(alive):
            bit = 1 << x
            up = p.above[x] & alive & ~bit
            down = p.below[x] & alive & ~bit
            if any(p.above[y] & alive == up for y in _bits(up)) or any(
                p.below[y] & alive == down for y in _bits(down)
            ):
                alive &= ~bit
                changed = True
    return alive


def _core_poset(p: FinitePoset) -> FinitePoset | None:
    """The core of ``p`` as a subposet, or None when it is one point (the
    order complex is contractible)."""
    mask = core(p)
    if mask and not mask & (mask - 1):
        return None
    return p if mask == (1 << p.n) - 1 else p.subposet(mask)


def _levels(p: FinitePoset, top: int) -> list[list[tuple]]:
    """The augmented chain groups of the order complex in degrees -1..top:
    level i holds the chains of i elements, so level 0 is the empty chain."""
    chains = order_chains(p, max_len=top + 1)
    return [[()]] + chains + [[]] * (top + 1 - len(chains))


def _index(level) -> dict[tuple, int]:
    return {c: i for i, c in enumerate(level)}


def _faces(index: dict, level) -> list[tuple[int, ...]]:
    """The boundary of each chain of ``level`` as a face list: the places in
    ``index`` of the faces that drop its vertex 0, 1, ... in turn, so the
    face at place d carries the sign (-1)^d.  A chain's vertices follow the
    poset order, not the index order, so a face list is not sorted.  The
    faces are looked up one vertex place at a time across the whole level:
    one comprehension per place, not one per chain."""
    if not level:
        return []
    drops = [[index[c[:d] + c[d + 1 :]] for c in level] for d in range(len(level[0]))]
    return list(zip(*drops))


def _gf2_rank(cols, nrows: int):
    """Rank over F2 of the boundary with face lists ``cols``, by bitmask
    elimination; F2 has no torsion."""
    pivots: dict[int, int] = {}
    for faces in cols:
        col = 0
        for i in faces:
            col ^= 1 << i
        while col:
            low = col & -col
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                break
            col ^= other
    return len(pivots), ()


def _signed_rows(cols, nrows: int):
    """The signed boundary as sparse rows, one per face, built row by row so
    that each row's columns come out increasing."""
    rows = [[] for _ in range(nrows)]
    for j, faces in enumerate(cols):
        for d, i in enumerate(faces):
            rows[i].append((j, -1 if d & 1 else 1))
    return rows


def _rank_q(cols, nrows: int):
    return exactla.rank(Matrix(QQ, nrows, len(cols), _signed_rows(cols, nrows))), ()


def _rank_z(cols, nrows: int):
    factors = exactla.smith_normal_form(_signed_rows(cols, nrows), len(cols)).factors
    return len(factors), [d for d in factors if d > 1]


def _homology(sizes: list[int], boundary, rank):
    """Reduced homology of an augmented chain complex, degrees -1..len(sizes)-3.

    ``sizes[i]`` is the rank of the chain group in degree i-1, and
    ``boundary(i)`` (i >= 2) gives its boundary as face lists; it is asked
    for only when both of its groups are nonzero.  The augmentation is never
    built: the complexes here map some degree-0 chain onto the empty chain,
    so it has rank 1 when degree 0 is nonzero.  ``rank(cols, nrows)`` gives
    a boundary's rank and torsion factors.  Returns the nonzero free ranks
    and the nonempty torsion, each as a dict keyed by degree."""
    ranks = [0] * len(sizes)  # ranks[i]: the boundary out of degree i-1
    if len(sizes) > 1 and sizes[1]:
        ranks[1] = 1
    torsion = {}
    for i in range(2, len(sizes)):
        if sizes[i] and sizes[i - 1]:
            ranks[i], tors = rank(boundary(i), sizes[i - 1])
            if tors:
                torsion[i - 2] = tors
    dims = {}
    for i in range(len(sizes) - 1):
        free = sizes[i] - ranks[i] - ranks[i + 1]
        if free:
            dims[i - 1] = free
    return dims, torsion


def _reduced_homology(p: FinitePoset, through: int | None, rank):
    top = (p.n - 1) if through is None else min(through, p.n - 1)
    levels = _levels(p, top + 1)
    return _homology(
        list(map(len, levels)), lambda i: _faces(_index(levels[i - 1]), levels[i]), rank
    )


def reduced_homology_f2(p: FinitePoset, through: int | None = None) -> dict[int, int]:
    """Reduced F2 Betti numbers of the order complex, degrees -1..through
    (default: all degrees the complex carries)."""
    return _reduced_homology(p, through, _gf2_rank)[0]


def reduced_homology_q(p: FinitePoset, through: int | None = None) -> dict[int, int]:
    """Reduced rational Betti numbers of the order complex."""
    return _reduced_homology(p, through, _rank_q)[0]


def reduced_homology_z(p: FinitePoset, through: int | None = None):
    """Reduced integral homology: {degree: (free_rank, [torsion factors])}."""
    dims, torsion = _reduced_homology(p, through, _rank_z)
    return {k: (dims.get(k, 0), torsion.get(k, [])) for k in sorted(dims.keys() | torsion.keys())}


# coefficient choice -> (reduced homology, whether it reports torsion).  Every
# entry returns a dict whose keys are the nonzero degrees.  The functions are
# looked up when called, so a wrapper put on a module attribute (as the
# benchmark's tracer does) sees these calls too.
_FIELDS = {
    "F2": (lambda p, through: reduced_homology_f2(p, through), False),
    "Q": (lambda p, through: reduced_homology_q(p, through), False),
    "QQ": (lambda p, through: reduced_homology_q(p, through), False),
    "Z": (lambda p, through: reduced_homology_z(p, through), True),
}


def _field(field: str):
    if field not in _FIELDS:
        raise InputError(f"unknown coefficient choice {field}")
    return _FIELDS[field]


@dataclass
class ConnectivityReport:
    dims: dict[int, int]
    connectivity: float  # int, or INF when acyclic through every carried degree
    field_name: str = "F2"
    torsion: dict[int, list[int]] | None = None


def connectivity_report(p: FinitePoset, field: str = "F2") -> ConnectivityReport:
    """Reduced homology and connectivity of the order complex, computed on
    the core of ``p``, which has the same homology.  Over Z, a degree with
    torsion only is listed in ``dims`` with 0, after the free degrees."""
    homology, has_torsion = _field(field)
    q = _core_poset(p)
    h = {} if q is None else homology(q, None)
    conn = min(h) - 1 if h else INF
    if not has_torsion:
        return ConnectivityReport(dims=h, connectivity=conn, field_name=field)
    dims = {k: free for k, (free, _) in h.items() if free}
    torsion = {k: tors for k, (_, tors) in h.items() if tors}
    for k in torsion:
        dims.setdefault(k, 0)
    return ConnectivityReport(dims=dims, connectivity=conn, field_name=field, torsion=torsion)


def is_homologically_connected(p: FinitePoset, m, field: str = "F2") -> bool:
    """Is the order complex m-connected in the homological sense?  Computed
    on the core of ``p``; over Z, torsion counts."""
    homology, _ = _field(field)
    if m <= -2 or m == -INF:
        return True
    if p.n == 0:
        return False
    if m == -1:
        return True
    q = _core_poset(p)
    if q is None:
        return True
    if m >= q.n:  # complex has dimension <= n-1; acyclicity through n-1 suffices
        m = q.n - 1
    return all(k > m for k in homology(q, int(m)))


# ---------------------------------------------------------------------------
# poset maps and mapping cones


class PosetMap:
    def __init__(self, source: FinitePoset, target: FinitePoset, mapping: dict):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        missing = [nm for nm in source.names if nm not in self.mapping]
        if missing:
            raise InputError(f"map not total; missing {missing}")
        for nm, v in self.mapping.items():
            if v not in target.idx:
                raise InputError(f"map value {v} not in target")
        for a in source.names:
            for b in source.names:
                if source.leq(a, b) and not target.leq(self.mapping[a], self.mapping[b]):
                    raise InputError(
                        f"not order-preserving: {a} <= {b} but "
                        f"{self.mapping[a]} !<= {self.mapping[b]}"
                    )

    def fiber_leq(self, y) -> FinitePoset:
        """f_{<=y}: the subposet of the source mapping into the down-set of y."""
        mask = 0
        for nm, v in self.mapping.items():
            if self.target.leq(v, y):
                mask |= 1 << self.source.idx[nm]
        return self.source.subposet(mask)

    def fiber_geq(self, y) -> FinitePoset:
        mask = 0
        for nm, v in self.mapping.items():
            if self.target.leq(y, v):
                mask |= 1 << self.source.idx[nm]
        return self.source.subposet(mask)


def cone_homology_f2(f: PosetMap, through: int) -> dict[int, int]:
    """Reduced F2 homology of the mapping cone of the induced chain map on
    order complexes, degrees -1..through.

    The cone's chains in degree k are C_{k-1}(X) + C_k(Y), the empty chain
    being degree -1 on both sides.  A chain a of X bounds to its faces and
    to f(a) when f is injective on a, a chain of Y to its faces; over F2
    the cone's signs do not matter."""
    X, Y = f.source, f.target
    if X.n == 0 or Y.n == 0:
        raise DomainError("mapping cone needs nonempty source and target")
    top = min(through, max(X.n, Y.n - 1))
    lx, ly = _levels(X, top), _levels(Y, top + 1)
    fmap = [Y.idx[f.mapping[nm]] for nm in X.names]
    sizes = [len(ly[0])] + [len(a) + len(b) for a, b in zip(lx, ly[1:])]

    def boundary(i):
        # rows: the Y block (degree i-2) first, then the X block (degree i-3)
        iy = _index(ly[i - 1])
        off = len(iy)
        cols = _faces(iy, ly[i])
        xs = lx[i - 1]
        for c, col in zip(xs, _faces({a: off + j for j, a in enumerate(lx[i - 2])}, xs)):
            img = tuple([fmap[v] for v in c])  # a chain of Y iff f is injective on c
            cols.append(col + (iy[img],) if img in iy else col)
        return cols

    return _homology(sizes, boundary, _gf2_rank)[0]


def map_is_n_connected(f: PosetMap, n: int) -> bool:
    if n <= -2:
        return True
    dims = cone_homology_f2(f, through=n)
    return all(k > n for k, v in dims.items() if v)


# ---------------------------------------------------------------------------
# theorem checkers


@dataclass
class HypothesisRecord:
    element: str
    requirement: str
    holds: bool


@dataclass
class TheoremReport:
    hypotheses_hold: bool
    conclusion_holds: bool
    records: list[HypothesisRecord] = dc_field(default_factory=list)
    note: str = "connectivity is the homological surrogate over F2"

    @property
    def consistent(self) -> bool:
        """The implication claimed by the theorem."""
        return (not self.hypotheses_hold) or self.conclusion_holds


def _check_weights(t: dict, p: FinitePoset) -> None:
    missing = [nm for nm in p.names if nm not in t]
    if missing:
        raise InputError(f"no weight for {', '.join(missing)}")


def check_poset_map_theorem(
    f: PosetMap, t: dict, n: int, variant: str = "i"
) -> TheoremReport:
    """Check the connectivity criterion for the poset map f with weight
    function t: hypotheses per target element, conclusion on the mapping cone.

    Variant (i): f_{<=y} is (t(y)-2)-connected and (target)_{>y} is
    (n-t(y)-1)-connected for every y.  Variant (ii): f_{>=y} and
    (target)_{<y} instead.  Conclusion: the map is homologically n-connected.
    """
    if variant not in ("i", "ii"):
        raise InputError("variant must be 'i' or 'ii'")
    Y = f.target
    _check_weights(t, Y)
    records = []
    ok = True
    for y in Y.names:
        ty = t[y]
        if variant == "i":
            fib = f.fiber_leq(y)
            side = Y.subposet(Y.gt_mask(Y.idx[y]))
            c1, r1 = ty - 2, f"f_<=({y}) is ({ty}-2)-connected"
            c2, r2 = n - ty - 1, f"target_>({y}) is (n-t-1)-connected"
        else:
            fib = f.fiber_geq(y)
            side = Y.subposet(Y.lt_mask(Y.idx[y]))
            c1, r1 = n - ty - 1, f"f_>=({y}) is (n-t-1)-connected"
            c2, r2 = ty - 2, f"target_<({y}) is ({ty}-2)-connected"
        h1 = is_homologically_connected(fib, c1)
        h2 = is_homologically_connected(side, c2)
        records.append(HypothesisRecord(y, r1, h1))
        records.append(HypothesisRecord(y, r2, h2))
        ok = ok and h1 and h2
    conclusion = map_is_n_connected(f, n)
    return TheoremReport(hypotheses_hold=ok, conclusion_holds=conclusion, records=records)


class CoverFunctor:
    """Contravariant functor from a poset to closed subposets of X."""

    def __init__(self, A: FinitePoset, X: FinitePoset, assignment: dict):
        self.A = A
        self.X = X
        self.masks = {}
        for a in assignment:
            if a not in A.idx:
                raise InputError(f"cover value at {a}, which is not an element of the index poset")
        for a in A.names:
            if a not in assignment:
                raise InputError(f"cover functor missing value at {a}")
            mask = 0
            for x in assignment[a]:
                if x not in X.idx:
                    raise InputError(f"cover value {x} not in the covered poset")
                mask |= 1 << X.idx[x]
            self.masks[a] = mask
        for a, mask in self.masks.items():
            for i in _bits(mask):
                if (X.lt_mask(i) | mask) != mask:
                    raise InputError(f"F({a}) is not closed (downward) in X")
        for a in A.names:
            for b in A.names:
                if A.leq(a, b) and (self.masks[b] | self.masks[a]) != self.masks[a]:
                    raise InputError(
                        f"not contravariant: {a} <= {b} but F({b}) is not inside F({a})"
                    )

    def value(self, a) -> FinitePoset:
        return self.X.subposet(self.masks[a])

    def member(self, a, x) -> bool:
        return bool((self.masks[a] >> self.X.idx[x]) & 1)


def check_nerve_theorem(
    X: FinitePoset, A: FinitePoset, F: CoverFunctor, n: int, tX: dict, tA: dict
) -> TheoremReport:
    """Nerve criterion: (i) the index poset is (n-1)-connected; (ii) each
    A_<a is (tA(a)-2)-connected and F(a) is (n-tA(a)-1)-connected; (iii) each
    X_<x is (tX(x)-2)-connected and A_x = {a : x in F(a)} is
    ((n-1)-tX(x)-1)-connected.  Conclusion: X is (n-1)-connected."""
    _check_weights(tX, X)
    _check_weights(tA, A)
    records = []
    h_i = is_homologically_connected(A, n - 1)
    records.append(HypothesisRecord("(index)", "index poset is (n-1)-connected", h_i))
    ok = h_i
    for a in A.names:
        ta = tA[a]
        below = A.subposet(A.lt_mask(A.idx[a]))
        h1 = is_homologically_connected(below, ta - 2)
        h2 = is_homologically_connected(F.value(a), n - ta - 1)
        records.append(HypothesisRecord(a, f"index_<({a}) is ({ta}-2)-connected", h1))
        records.append(HypothesisRecord(a, f"F({a}) is (n-t-1)-connected", h2))
        ok = ok and h1 and h2
    for x in X.names:
        tx = tX[x]
        below = X.subposet(X.lt_mask(X.idx[x]))
        mask = 0
        for a in A.names:
            if F.member(a, x):
                mask |= 1 << A.idx[a]
        ax = A.subposet(mask)
        h1 = is_homologically_connected(below, tx - 2)
        h2 = is_homologically_connected(ax, (n - 1) - tx - 1)
        records.append(HypothesisRecord(x, f"X_<({x}) is ({tx}-2)-connected", h1))
        records.append(HypothesisRecord(x, f"A_({x}) is ((n-1)-t-1)-connected", h2))
        ok = ok and h1 and h2
    conclusion = is_homologically_connected(X, n - 1)
    return TheoremReport(hypotheses_hold=ok, conclusion_holds=conclusion, records=records)


def wreath_poset(A: FinitePoset, F: CoverFunctor):
    """The poset of pairs (a, x) with x in F(a), ordered by
    (a, x) <= (a', x') iff a' <=_A a (the index coordinate carries the
    opposite order, as the nerve factorization requires) and x <=_X x'.
    Returns (wreath, pi1 onto A^op, pi2 onto X)."""
    X = F.X
    names = []
    for a in A.names:
        for x in X.names:
            if F.member(a, x):
                names.append(f"({a}|{x})")
    pairs = []
    for a in A.names:
        for x in X.names:
            if not F.member(a, x):
                continue
            for a2 in A.names:
                for x2 in X.names:
                    if not F.member(a2, x2):
                        continue
                    if (a, x) != (a2, x2) and A.leq(a2, a) and X.leq(x, x2):
                        pairs.append((f"({a}|{x})", f"({a2}|{x2})"))
    w = FinitePoset(sorted(names), pairs)
    a_op = A.op()
    pi1 = PosetMap(w, a_op, {f"({a}|{x})": a for a in A.names for x in X.names if F.member(a, x)})
    pi2 = PosetMap(w, X, {f"({a}|{x})": x for a in A.names for x in X.names if F.member(a, x)})
    return w, pi1, pi2


# ---------------------------------------------------------------------------
# randomized campaigns


@dataclass
class FuzzReport:
    campaign: str
    seed: int
    instances: int
    hypotheses_satisfied: int
    counterexamples: list
    resampled_oversize: int

    @property
    def clean(self) -> bool:
        return not self.counterexamples


MAX_CHAINS = 4000  # resample bound so a dense random poset cannot stall a campaign


def random_poset(rng: random.Random, max_size: int) -> FinitePoset:
    n = rng.randint(1, max_size)
    p_edge = rng.uniform(0.08, 0.45)
    names = [f"p{i}" for i in range(n)]
    pairs = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                pairs.append((names[order[i]], names[order[j]]))
    return FinitePoset(names, pairs)


def _chain_count(p: FinitePoset, max_len: int) -> int:
    """Number of chains of length <= max_len, counted per top element:
    the chains of length k+1 ending at j extend those of length k ending
    below j."""
    preds = [_bits(p.lt_mask(j)) for j in range(p.n)]
    ending = [1] * p.n
    total = 0
    for _ in range(min(max_len, p.n)):
        total += sum(ending)
        ending = [sum(ending[i] for i in below) for below in preds]
    return total


def random_monotone_map(rng: random.Random, X: FinitePoset, Y: FinitePoset) -> PosetMap:
    full = (1 << Y.n) - 1
    order = sorted(range(X.n), key=lambda i: (bin(X.below[i]).count("1"), i))
    mapping: dict[str, str] = {}
    assigned: dict[int, int] = {}
    for i in order:
        cand = full
        for j in _bits(X.lt_mask(i)):
            if j in assigned:
                cand &= Y.above[assigned[j]]
        if not cand:
            # no common upper bound: fall back to a constant map
            y0 = Y.names[rng.randrange(Y.n)]
            return PosetMap(X, Y, {nm: y0 for nm in X.names})
        choices = [k for k in range(Y.n) if (cand >> k) & 1]
        assigned[i] = rng.choice(choices)
        mapping[X.names[i]] = Y.names[assigned[i]]
    return PosetMap(X, Y, mapping)


def fuzz_poset_map(count: int, max_size: int, seed: int) -> FuzzReport:
    rng = random.Random(seed)
    satisfied = 0
    resampled = 0
    counterexamples = []
    done = 0
    while done < count:
        X = random_poset(rng, max_size)
        Y = random_poset(rng, max_size)
        n = rng.randint(-1, 2)
        if _chain_count(X, n + 3) > MAX_CHAINS or _chain_count(Y, n + 3) > MAX_CHAINS:
            resampled += 1
            continue
        f = random_monotone_map(rng, X, Y)
        variant = rng.choice(("i", "ii"))
        if rng.random() < 0.5:
            t = {y: rng.randint(-1, 3) for y in Y.names}
        else:
            # informed weights: make the fiber-side hypothesis tight, so the
            # campaign actually exercises instances whose hypotheses hold
            t = {}
            for y in Y.names:
                fib = f.fiber_leq(y) if variant == "i" else f.fiber_geq(y)
                c = connectivity_report(fib).connectivity
                if variant == "i":
                    t[y] = int(min(c, n + 2)) + 2
                else:
                    t[y] = n - 1 - int(min(c, n + 2))
        rep = check_poset_map_theorem(f, t, n, variant)
        done += 1
        if rep.hypotheses_hold:
            satisfied += 1
            if not rep.conclusion_holds:
                counterexamples.append(_minimize_map_instance(f, t, n, variant))
    return FuzzReport(
        campaign="poset-map",
        seed=seed,
        instances=done,
        hypotheses_satisfied=satisfied,
        counterexamples=counterexamples,
        resampled_oversize=resampled,
    )


def random_cover(rng: random.Random, A: FinitePoset, X: FinitePoset) -> CoverFunctor:
    order = sorted(range(A.n), key=lambda i: (bin(A.below[i]).count("1"), i))
    masks: dict[int, int] = {}
    for i in order:
        allowed = (1 << X.n) - 1
        for j in _bits(A.lt_mask(i)):
            allowed &= masks[j]
        mask = 0
        for k in range(X.n):
            if (allowed >> k) & 1 and rng.random() < 0.6:
                mask |= (1 << k) | (X.lt_mask(k) & allowed)
        masks[i] = mask
    return CoverFunctor(
        A, X, {A.names[i]: [X.names[k] for k in range(X.n) if (masks[i] >> k) & 1] for i in order}
    )


def fuzz_nerve(count: int, max_size: int, seed: int) -> FuzzReport:
    rng = random.Random(seed)
    satisfied = 0
    resampled = 0
    counterexamples = []
    done = 0
    while done < count:
        A = random_poset(rng, max(2, max_size // 2))
        X = random_poset(rng, max_size)
        n = rng.randint(0, 2)
        if _chain_count(X, n + 3) > MAX_CHAINS or _chain_count(A, n + 3) > MAX_CHAINS:
            resampled += 1
            continue
        F = random_cover(rng, A, X)
        if rng.random() < 0.5:
            tA = {a: rng.randint(-1, 3) for a in A.names}
            tX = {x: rng.randint(-1, 3) for x in X.names}
        else:
            # informed weights: choose each t at the largest value its
            # "below" hypothesis tolerates, so the remaining clauses decide
            tA = {
                a: int(
                    min(connectivity_report(A.subposet(A.lt_mask(A.idx[a]))).connectivity, n + 1)
                )
                + 2
                for a in A.names
            }
            tX = {
                x: int(
                    min(connectivity_report(X.subposet(X.lt_mask(X.idx[x]))).connectivity, n + 1)
                )
                + 2
                for x in X.names
            }
        rep = check_nerve_theorem(X, A, F, n, tX, tA)
        done += 1
        if rep.hypotheses_hold:
            satisfied += 1
            if not rep.conclusion_holds:
                counterexamples.append(_minimize_nerve_instance(X, A, F, n, tX, tA))
    return FuzzReport(
        campaign="nerve",
        seed=seed,
        instances=done,
        hypotheses_satisfied=satisfied,
        counterexamples=counterexamples,
        resampled_oversize=resampled,
    )


def _minimize_nerve_instance(X, A, F, n, tX, tA):
    """Greedy minimization of a nerve counterexample: drop covered elements
    while the instance still violates the implication."""

    def is_counterexample(xmask):
        try:
            sub = X.subposet(xmask)
            subF = CoverFunctor(
                A, sub, {a: [x for x in sub.names if F.member(a, x)] for a in A.names}
            )
            rep = check_nerve_theorem(
                sub, A, subF, n, {x: tX[x] for x in sub.names}, tA
            )
            return rep.hypotheses_hold and not rep.conclusion_holds
        except (InputError, DomainError):
            return False

    mask = (1 << X.n) - 1
    for i in range(X.n):
        trial = mask & ~(1 << i)
        if trial and is_counterexample(trial):
            mask = trial
    sub = X.subposet(mask)
    return {
        "X": sub.cover_pairs(),
        "X_elements": list(sub.names),
        "A": A.cover_pairs(),
        "A_elements": list(A.names),
        "F": {a: sorted(x for x in sub.names if F.member(a, x)) for a in A.names},
        "n": n,
        "tA": tA,
        "tX": {x: tX[x] for x in sub.names},
    }


def _minimize_map_instance(f: PosetMap, t: dict, n: int, variant: str):
    """Greedy one-pass minimization of a counterexample: drop source elements
    while the instance still violates the implication."""
    X, Y = f.source, f.target
    mapping = dict(f.mapping)

    def is_counterexample(xmask):
        try:
            sub = X.subposet(xmask)
            g = PosetMap(sub, Y, {nm: mapping[nm] for nm in sub.names})
            rep = check_poset_map_theorem(g, t, n, variant)
            return rep.hypotheses_hold and not rep.conclusion_holds
        except (InputError, DomainError):
            return False

    mask = (1 << X.n) - 1
    for i in range(X.n):
        trial = mask & ~(1 << i)
        if trial and is_counterexample(trial):
            mask = trial
    sub = X.subposet(mask)
    return {
        "source": sub.cover_pairs(),
        "source_elements": list(sub.names),
        "target": Y.cover_pairs(),
        "target_elements": list(Y.names),
        "map": {nm: mapping[nm] for nm in sub.names},
        "t": t,
        "n": n,
        "variant": variant,
    }


def euler_characteristic(p: FinitePoset) -> int:
    """Reduced Euler characteristic of the order complex from chain counts."""
    chains = order_chains(p)
    return sum((-1) ** k * len(level) for k, level in enumerate(chains)) - 1


def parse_weights(text: str) -> dict:
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            name, weight = parts
            out[name] = int(weight)
        except ValueError:
            raise InputError(f"bad weight line: {raw!r}") from None
    return out


def parse_cover(text: str, A: FinitePoset, X: FinitePoset) -> CoverFunctor:
    """Functor file: lines ``a : x1 x2 ...``."""
    assignment = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise InputError(f"bad cover line: {raw!r}")
        a, xs = line.split(":", 1)
        assignment[a.strip()] = xs.split()
    return CoverFunctor(A, X, assignment)
