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

The homology workhorse runs over F2 with bitmask Gaussian elimination, which
is what the randomized campaigns use; Q and Z (Smith form) variants exist for
explicit tables.  Only chains short enough to influence the requested degrees
are ever enumerated.

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


def _gf2_rank(cols) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for col in cols:
        while col:
            low = col & -col
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                rank += 1
                break
            col ^= other
    return rank


def reduced_homology_f2(p: FinitePoset, through: int | None = None) -> dict[int, int]:
    """Reduced F2 Betti numbers of the order complex, degrees -1..through
    (default: all degrees the complex carries)."""
    top = (p.n - 1) if through is None else min(through, p.n - 1)
    chains = order_chains(p, max_len=top + 2)
    sizes = {-1: 1}
    for k, level in enumerate(chains):
        sizes[k] = len(level)
    index = [{c: i for i, c in enumerate(level)} for level in chains]
    ranks = {}  # ranks[k] = rank of boundary C_k -> C_{k-1}
    # augmentation
    ranks[0] = 1 if sizes.get(0, 0) else 0
    for k in range(1, top + 2):
        level = chains[k] if k < len(chains) else []
        if not level or not sizes.get(k - 1, 0):
            ranks[k] = 0
            continue
        rows = index[k - 1]
        cols = []
        for c in level:
            mask = 0
            for drop in range(len(c)):
                face = c[:drop] + c[drop + 1 :]
                mask ^= 1 << rows[face]
            cols.append(mask)
        ranks[k] = _gf2_rank(cols)
    out = {}
    for k in range(-1, top + 1):
        dim = sizes.get(k, 0) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if dim:
            out[k] = dim
    return out


def _boundary_rows_signed(chains, k):
    """Signed boundary of the k-simplices (k >= 1) as sparse rows, one per
    (k-1)-simplex: ``(col, +-1)`` pairs, appended in increasing col."""
    index = {c: i for i, c in enumerate(chains[k - 1])}
    rows = [[] for _ in chains[k - 1]]
    for j, c in enumerate(chains[k] if k < len(chains) else ()):
        for drop in range(len(c)):
            rows[index[c[:drop] + c[drop + 1 :]]].append((j, -1 if drop % 2 else 1))
    return rows


def reduced_homology_q(p: FinitePoset, through: int | None = None) -> dict[int, int]:
    """Reduced rational Betti numbers of the order complex."""
    top = (p.n - 1) if through is None else min(through, p.n - 1)
    chains = order_chains(p, max_len=top + 2)
    sizes = {-1: 1}
    for k, level in enumerate(chains):
        sizes[k] = len(level)
    ranks = {0: 1 if sizes.get(0, 0) else 0}
    for k in range(1, top + 2):
        rows = _boundary_rows_signed(chains, k)
        ncols = sizes.get(k, 0)
        ranks[k] = exactla.rank(Matrix(QQ, len(rows), ncols, rows)) if rows and ncols else 0
    out = {}
    for k in range(-1, top + 1):
        dim = sizes.get(k, 0) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if dim:
            out[k] = dim
    return out


def reduced_homology_z(p: FinitePoset, through: int | None = None):
    """Reduced integral homology: {degree: (free_rank, [torsion factors])}."""
    top = (p.n - 1) if through is None else min(through, p.n - 1)
    chains = order_chains(p, max_len=top + 2)
    sizes = {-1: 1}
    for k, level in enumerate(chains):
        sizes[k] = len(level)
    snf = {}
    ranks = {0: 1 if sizes.get(0, 0) else 0}
    torsion = {0: []}
    for k in range(1, top + 2):
        rows = _boundary_rows_signed(chains, k)
        ncols = sizes.get(k, 0)
        if not rows or not ncols:
            ranks[k], torsion[k] = 0, []
            continue
        sf = exactla.smith_normal_form(rows, ncols)
        ranks[k] = len(sf.factors)
        torsion[k] = [d for d in sf.factors if d > 1]
        snf[k] = sf
    out = {}
    for k in range(-1, top + 1):
        free = sizes.get(k, 0) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        tors = torsion.get(k + 1, [])
        if free or tors:
            out[k] = (free, tors)
    return out


@dataclass
class ConnectivityReport:
    dims: dict[int, int]
    connectivity: float  # int, or INF when acyclic through every carried degree
    field_name: str = "F2"
    torsion: dict[int, list[int]] | None = None


def connectivity_report(p: FinitePoset, field: str = "F2") -> ConnectivityReport:
    """Reduced homology and connectivity of the order complex, computed on
    the core of ``p``, which has the same homology."""
    if field not in ("F2", "Q", "QQ", "Z"):
        raise InputError(f"unknown coefficient choice {field}")
    q = _core_poset(p)
    if q is None:
        return ConnectivityReport(
            dims={}, connectivity=INF, field_name=field, torsion={} if field == "Z" else None
        )
    if field == "F2":
        dims = reduced_homology_f2(q)
        torsion = None
    elif field in ("Q", "QQ"):
        dims = reduced_homology_q(q)
        torsion = None
    else:
        hz = reduced_homology_z(q)
        dims = {k: fr for k, (fr, tors) in hz.items() if fr}
        torsion = {k: tors for k, (_, tors) in hz.items() if tors}
        for k, tors in (torsion or {}).items():
            dims.setdefault(k, 0)
    bad = sorted(k for k, v in dims.items() if v) + sorted(
        k for k in (torsion or {}) if torsion[k]
    )
    conn = INF if not bad else min(bad) - 1
    return ConnectivityReport(dims=dims, connectivity=conn, field_name=field, torsion=torsion)


def is_homologically_connected(p: FinitePoset, m, field: str = "F2") -> bool:
    """Is the order complex m-connected in the homological sense?  Computed
    on the core of ``p``."""
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
    dims = reduced_homology_f2(q, through=int(m)) if field == "F2" else (
        reduced_homology_q(q, through=int(m))
    )
    return all(k > m for k, v in dims.items() if v)


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
    order complexes, degrees -1..through."""
    X, Y = f.source, f.target
    if X.n == 0 or Y.n == 0:
        raise DomainError("mapping cone needs nonempty source and target")
    top = min(through, max(X.n, Y.n - 1))
    cx = order_chains(X, max_len=top + 2)  # need C_k(X) for k <= top+1
    cy = order_chains(Y, max_len=top + 2)
    ix = [{c: i for i, c in enumerate(level)} for level in cx]
    iy = [{c: i for i, c in enumerate(level)} for level in cy]
    fmap = [Y.idx[f.mapping[nm]] for nm in X.names]

    def x_size(k):
        if k == -1:
            return 1
        return len(cx[k]) if 0 <= k < len(cx) else 0

    def y_size(k):
        if k == -1:
            return 1
        return len(cy[k]) if 0 <= k < len(cy) else 0

    def cone_size(k):
        return x_size(k - 1) + y_size(k)

    def f_chain(c):
        img = tuple(fmap[v] for v in c)
        if len(set(img)) != len(img):
            return None
        return img

    ranks = {}
    for k in range(0, top + 2):
        ncols = cone_size(k)
        nrows = cone_size(k - 1)
        if ncols == 0 or nrows == 0:
            ranks[k] = 0
            continue
        xoff = x_size(k - 2)  # rows: X part first (degree k-2), then Y part (k-1)
        cols = []
        # X-part columns: a in C_{k-1}(X) |-> (boundary a, f(a))
        if k - 1 == -1:
            # a is the augmentation generator of X; boundary 0, image: augmentation of Y
            mask = 0  # y part: the single C_{-1}(Y) generator is row xoff+0
            mask ^= 1 << xoff
            cols.append(mask)
        else:
            for c in cx[k - 1] if k - 1 < len(cx) else []:
                mask = 0
                if k - 1 == 0:
                    mask ^= 1  # augmentation row of X at position 0 of the X block
                else:
                    for drop in range(len(c)):
                        face = c[:drop] + c[drop + 1 :]
                        mask ^= 1 << ix[k - 2][face]
                img = f_chain(c)
                if img is not None:
                    mask ^= 1 << (xoff + iy[k - 1][img])
                cols.append(mask)
        # Y-part columns: b in C_k(Y) |-> boundary b
        if k == 0:
            for _ in cy[0] if cy else []:
                cols.append(1 << xoff)  # augmentation of Y
        else:
            for c in cy[k] if k < len(cy) else []:
                mask = 0
                for drop in range(len(c)):
                    face = c[:drop] + c[drop + 1 :]
                    mask ^= 1 << (xoff + iy[k - 1][face])
                cols.append(mask)
        ranks[k] = _gf2_rank(cols)
    out = {}
    for k in range(-1, top + 1):
        dim = cone_size(k) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if dim:
            out[k] = dim
    return out


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
        if len(parts) != 2:
            raise InputError(f"bad weight line: {raw!r}")
        out[parts[0]] = int(parts[1])
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
