"""Finite posets, order complexes, reduced homology, and executable checkers
for the poset-map connectivity theorem and the nerve criterion.

Connectivity here is the homological surrogate: "homologically n-connected"
means reduced homology vanishes through degree n.  A map f: X -> Y is
n-connected when its poset mapping cone is: X and Y with x < y iff
f(x) <= y (the non-Hausdorff mapping cylinder) and one point above all of X,
whose order complex is the mapping cone of f up to homotopy (Barmak &
Minian, Adv. Math. 218 (2008); Barmak, LNM 2032 (2011), 2.8).
True topological n-connectedness also constrains the fundamental group, which
a finite computation cannot decide; reports are labelled accordingly.

Conventions: the empty complex has connectivity -2 (its reduced homology is
the coefficient ring in degree -1); "(-1)-connected" means nonempty;
"m-connected" for m <= -2 is vacuously true.  A poset that is acyclic through
every degree its order complex carries gets the infinity sentinel.

Homology over F2, Q and Z, of posets and so of maps, is
`exactla.chain_homology` on the order complex, augmented by the empty chain
in degree -1.  Its boundaries are face lists, and a rank backend reduces
them: bitmask elimination over F2, which the randomized campaigns use, and
the Smith form over Z, which also yields torsion; the Betti numbers over Q
are the free ranks over Z.  Only chains short enough to influence the
requested degrees are ever enumerated.  The rows a backend clears are the
``low`` keys over F2 and the rows of the Smith form's unit pivots over Z and
Q, never those of its non-unit pivots; `exactla.chain_homology` proves both.

Connectivity is computed on the core: beat points are removed first, which
keeps the homotopy type of the order complex (Stong, *Finite topological
spaces*, Trans. AMS 123 (1966)).  A poset whose core is one point, such as a
cone, is contractible and needs no homology at all.  A subset of a poset is
a bitmask of its parent, and no subposet is built for it: emptiness, the
threshold and a one-point core are settled on the mask, degree 0 by a walk
of the comparability graph on it, and homology runs on the chains of the
core mask, listed in the parent's indices.  A connectivity question is
answered only as far as it reaches: homology through the degree it asks
about.  ``subposet`` trusts its parent: it compresses its relation masks and
does not validate again.  ``subsets_poset`` and ``random_poset`` build masks
that are partial orders by construction (submasks; relations drawn along a
shuffled total order and closed in one pass along it).  Only
``FinitePoset(names, pairs)`` checks outside input, and ``_subset`` checks
that a mask names points of its poset.

The randomized campaigns draw again when a poset of an instance has more
than ``MAX_CHAINS`` chains of the lengths its check reads, so that a dense
poset cannot stall a campaign.  Every chain is a nonempty subset of the
points, so a poset of n points with 2^n - 1 <= ``MAX_CHAINS`` is never
counted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field

from .errors import DomainError, InputError
from . import exactla
from .parsing import content_lines

INF = math.inf


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _transpose(below: list[int]) -> list[int]:
    """The up-set masks of a relation given by its down-set masks."""
    above = [0] * len(below)
    for i, m in enumerate(below):
        bit = 1 << i
        while m:
            low = m & -m
            above[low.bit_length() - 1] |= bit
            m ^= low
    return above


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
        for k in range(self.n):  # Warshall: whatever lies above k takes in all below k
            bit = 1 << k
            for i in range(self.n):
                if below[i] & bit:
                    below[i] |= below[k]
        self.below = below
        self.above = above = _transpose(below)
        for i in range(self.n):
            both = below[i] & above[i] & ~(1 << i)
            if both:
                j = (both & -both).bit_length() - 1
                raise InputError(
                    f"not a partial order: {self.names[i]} and {self.names[j]} "
                    "are mutually comparable"
                )

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
    for raw, line in content_lines(text):
        if "<" in line:
            a, _, b = (s.strip() for s in line.partition("<"))
            if not a or not b or "<" in b:
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
    """Proper nonempty subsets of {0..base_size-1}, ordered by inclusion and
    listed in the order of their names.  The down-set of a subset is the
    set of its nonempty submasks, so the order is built as masks and needs
    no validation."""
    full = (1 << base_size) - 1
    subsets = sorted(range(1, full), key=lambda s: frozenset_to_name(s, base_size))
    bit = {s: 1 << k for k, s in enumerate(subsets)}
    below = []
    for s in subsets:
        m, t = 0, s
        while t:  # the nonempty submasks of s, s itself first
            m |= bit[t]
            t = (t - 1) & s
        below.append(m)
    names = tuple([frozenset_to_name(s, base_size) for s in subsets])
    return FinitePoset._trusted(names, below, _transpose(below))


def frozenset_to_name(mask: int, base_size: int) -> str:
    return "{" + ",".join(str(i) for i in range(base_size) if (mask >> i) & 1) + "}"


# ---------------------------------------------------------------------------
# order complexes and homology


def order_chains(p: FinitePoset, max_len: int | None = None, mask: int | None = None):
    """Chains of the subset ``mask`` of ``p`` (default: all of it) grouped by
    length; chains[k] holds the length-(k+1) totally ordered tuples of
    parent indices, i.e. the k-simplices of the order complex.  Each level
    extends the previous one's tuples by the elements above their top, so
    the levels come out sorted, in the order of the subposet's chains."""
    mask = _subset(p, mask)
    keep = _bits(mask)
    limit = len(keep) if max_len is None else min(max_len, len(keep))
    if limit <= 0:
        return []
    above = p.above
    succ = {i: _bits((above[i] & mask) ^ (1 << i)) for i in keep}
    by_len = [[(i,) for i in keep]]
    while len(by_len) < limit:
        by_len.append([c + (j,) for c in by_len[-1] for j in succ[c[-1]]])
    return by_len


def _subset(p: FinitePoset, mask: int | None) -> int:
    """``mask``, or the mask of the whole poset when it is None; a mask with
    a bit outside the poset, or a negative one, is an input error."""
    full = (1 << p.n) - 1
    if mask is None:
        return full
    if mask < 0 or mask & ~full:
        raise InputError(f"mask {mask} is not a subset of a poset of {p.n} elements")
    return mask


def core(p: FinitePoset, mask: int | None = None) -> int:
    """Mask of a core of the subset ``mask`` of ``p`` (default: all of it):
    beat points removed until none is left.

    ``x`` is an up beat point when its strict up-set has a minimum, a down
    beat point when its strict down-set has a maximum.  Removing one keeps
    the homotopy type of the order complex (Stong, *Finite topological
    spaces*, Trans. AMS 123 (1966)), so a cone has a one-point core."""
    above, below = p.above, p.below
    alive = _subset(p, mask)
    changed = True
    while changed:
        changed = False
        rest = alive  # the sweep visits each point alive at its start, ascending
        while rest:
            bit = rest & -rest
            rest ^= bit
            x = bit.bit_length() - 1
            up = (above[x] & alive) ^ bit
            down = (below[x] & alive) ^ bit
            beat = False
            m = up  # does the strict up-set have a minimum?
            while m and not beat:
                low = m & -m
                m ^= low
                beat = above[low.bit_length() - 1] & alive == up
            m = down  # does the strict down-set have a maximum?
            while m and not beat:
                low = m & -m
                m ^= low
                beat = below[low.bit_length() - 1] & alive == down
            if beat:
                alive ^= bit
                changed = True
    return alive


def _core_of(p: FinitePoset, mask: int) -> int:
    """The core of the nonempty subset ``mask`` of ``p``, or 0 when the core
    is one point (the order complex is contractible)."""
    if mask & (mask - 1):  # a one-point mask is its own core
        mask = core(p, mask)
    return mask if mask & (mask - 1) else 0


def _connected(p: FinitePoset, mask: int) -> bool:
    """Is the order complex of the nonempty subset ``mask`` connected?  Its
    components are those of the comparability graph, walked from the
    lowest point of the mask."""
    above, below = p.above, p.below
    seen = todo = mask & -mask
    while todo:
        bit = todo & -todo
        todo ^= bit
        x = bit.bit_length() - 1
        new = (above[x] | below[x]) & mask & ~seen
        seen |= new
        todo |= new
    return seen == mask


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
    elimination; F2 has no torsion.  The rows to clear are the ``low`` keys:
    each leads a reduced column, a boundary of the form e_r plus higher
    rows."""
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
    return len(pivots), (), {low.bit_length() - 1 for low in pivots}


def _signed_rows(cols, nrows: int):
    """The signed boundary as sparse rows, one per face, built row by row so
    that each row's columns come out increasing."""
    rows = [[] for _ in range(nrows)]
    for j, faces in enumerate(cols):
        for d, i in enumerate(faces):
            rows[i].append((j, -1 if d & 1 else 1))
    return rows


def _rank_z(cols, nrows: int):
    """Rank and torsion over Z from the Smith form; the rows to clear are
    those of its unit pivots (phase 1), never those of phase 2."""
    sf = exactla.smith_normal_form(_signed_rows(cols, nrows), len(cols))
    return len(sf.factors), [d for d in sf.factors if d > 1], set(sf.unit_rows)


def _reduced_homology(p: FinitePoset, through: int | None, rank, mask: int | None = None):
    """Reduced homology of the order complex of the subset ``mask`` of ``p``
    (default: all of it) through degree ``through``, by
    `exactla.chain_homology` on its chain groups in degrees 0..top+1,
    augmented: level k holds the chains of k+1 elements.  ``rank(cols,
    nrows)`` reduces a boundary given as face lists."""
    mask = _subset(p, mask)
    size = bin(mask).count("1")
    top = (size - 1) if through is None else min(through, size - 1)
    levels = order_chains(p, top + 2, mask)
    levels += [[]] * (top + 2 - len(levels))

    def reduce(k, drop):
        kept = [c for j, c in enumerate(levels[k]) if j not in drop]
        return rank(_faces({c: j for j, c in enumerate(levels[k - 1])}, kept), len(levels[k - 1]))

    return exactla.chain_homology(list(map(len, levels)), reduce, augmented=True)


def reduced_homology_f2(
    p: FinitePoset, through: int | None = None, mask: int | None = None
) -> dict[int, int]:
    """Reduced F2 Betti numbers of the order complex of the subset ``mask``
    (default: all of ``p``), degrees -1..through (default: all degrees the
    complex carries)."""
    return _reduced_homology(p, through, _gf2_rank, mask)[0]


def reduced_homology_q(
    p: FinitePoset, through: int | None = None, mask: int | None = None
) -> dict[int, int]:
    """Reduced rational Betti numbers of the order complex: the free ranks
    over Z, whose boundary ranks are the number of nonzero Smith factors."""
    return _reduced_homology(p, through, _rank_z, mask)[0]


def reduced_homology_z(p: FinitePoset, through: int | None = None, mask: int | None = None):
    """Reduced integral homology: {degree: (free_rank, [torsion factors])}."""
    dims, torsion = _reduced_homology(p, through, _rank_z, mask)
    return {k: (dims.get(k, 0), torsion.get(k, [])) for k in sorted(dims.keys() | torsion.keys())}


# coefficient choice -> (reduced homology, whether it reports torsion).  Every
# entry returns a dict whose keys are the nonzero degrees.  The functions are
# looked up when called, so a wrapper put on a module attribute (as the
# benchmark's tracer does) sees these calls too.
_FIELDS = {
    "F2": (lambda p, through, mask: reduced_homology_f2(p, through, mask), False),
    "Q": (lambda p, through, mask: reduced_homology_q(p, through, mask), False),
    "QQ": (lambda p, through, mask: reduced_homology_q(p, through, mask), False),
    "Z": (lambda p, through, mask: reduced_homology_z(p, through, mask), True),
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


def connectivity_report(
    p: FinitePoset, field: str = "F2", mask: int | None = None
) -> ConnectivityReport:
    """Reduced homology and connectivity of the order complex of the subset
    ``mask`` of ``p`` (default: all of it), computed on its core, which has
    the same homology.  Over Z, a degree with torsion only is listed in
    ``dims`` with 0, after the free degrees."""
    homology, has_torsion = _field(field)
    mask = _subset(p, mask)
    if not mask:  # the empty complex: the coefficients in degree -1
        h = {-1: (1, []) if has_torsion else 1}
    else:
        mask = _core_of(p, mask)
        h = homology(p, None, mask) if mask else {}
    conn = min(h) - 1 if h else INF
    if not has_torsion:
        return ConnectivityReport(dims=h, connectivity=conn, field_name=field)
    dims = {k: free for k, (free, _) in h.items() if free}
    torsion = {k: tors for k, (_, tors) in h.items() if tors}
    for k in torsion:
        dims.setdefault(k, 0)
    return ConnectivityReport(dims=dims, connectivity=conn, field_name=field, torsion=torsion)


def _connectivity(p: FinitePoset, mask: int, cap, field: str = "F2"):
    """min(connectivity, cap) of the order complex of the subset ``mask`` of
    ``p``: -2 when the mask is empty, -1 when it is disconnected, ``cap``
    when its core is one point, and otherwise read off the homology of the
    core through degree ``cap``.  Over Z, torsion counts.

    The cap is exact.  The connectivity is c when reduced homology vanishes
    in every degree k <= c and not in degree c + 1, and INF when it vanishes
    in every degree.  Homology in degree k needs only the chains of at most
    k + 2 points, so homology through degree ``cap`` is exact in each degree
    up to ``cap``.  If it is nonzero in some degree <= cap, the least such
    degree d is the least nonzero degree of all, and min(d - 1, cap) =
    d - 1.  If it vanishes through degree ``cap``, the connectivity is at
    least ``cap``, and the minimum is ``cap``.  The degrees below 1 need no
    chains at all: over every ring, reduced H_0 is free of rank (number of
    components) - 1, and the components are those of the comparability
    graph; H_-1 is nonzero only for the empty complex.  The core has the
    homology of the mask (Stong), and a one-point core is contractible, of
    connectivity INF."""
    if not mask:
        return min(cap, -2)
    if cap <= -1 or not _connected(p, mask):
        return min(cap, -1)
    if cap <= 0:
        return cap
    mask = _core_of(p, mask)
    if not mask:
        return cap
    h = _field(field)[0](p, cap, mask)
    return min(h) - 1 if h else cap


def is_homologically_connected(
    p: FinitePoset, m, field: str = "F2", mask: int | None = None
) -> bool:
    """Is the order complex of the subset ``mask`` of ``p`` (default: all of
    it) m-connected in the homological sense?  Asked only as far as degree
    m: min(connectivity, m) >= m.  Over Z, torsion counts."""
    _field(field)
    return _connectivity(p, _subset(p, mask), m, field) >= m


# ---------------------------------------------------------------------------
# poset maps and mapping cones


class PosetMap:
    """An order-preserving map; ``image[i]`` is the target index of source i."""

    def __init__(self, source: FinitePoset, target: FinitePoset, mapping: dict):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        _check_keys(self.mapping, source, "map value")
        for nm, v in self.mapping.items():
            if v not in target.idx:
                raise InputError(f"map value {v} not in target")
        self.image = image = [target.idx[self.mapping[nm]] for nm in source.names]
        for i, up in enumerate(source.above):
            allowed = target.above[image[i]]
            while up:
                low = up & -up
                up ^= low
                j = low.bit_length() - 1
                if not (allowed >> image[j]) & 1:
                    a, b = source.names[i], source.names[j]
                    raise InputError(
                        f"not order-preserving: {a} <= {b} but "
                        f"{self.mapping[a]} !<= {self.mapping[b]}"
                    )

    def preimage(self, mask: int) -> int:
        """Mask of the source elements whose image lies in the target subset
        ``mask``: the fiber f_{<=y} is ``preimage(target.below[y])``."""
        return sum(1 << i for i, j in enumerate(self.image) if (mask >> j) & 1)


def mapping_cone(f: PosetMap) -> FinitePoset:
    """The poset mapping cone of f on X, then Y, then a cone point: X and
    Y keep their orders, x < y iff f(x) <= y, and the cone point lies above
    all of X.  Its order complex is the mapping cone of f up to homotopy
    (Barmak & Minian, Adv. Math. 218 (2008)).  The masks are a partial
    order by construction, because f preserves the order."""
    X, Y = f.source, f.target
    if X.n == 0 or Y.n == 0:
        raise DomainError("mapping cone needs nonempty source and target")
    below = X.below + [(m << X.n) | f.preimage(m) for m in Y.below]
    below.append(((1 << X.n) - 1) | (1 << len(below)))  # the cone point: X and itself
    names = [("X", nm) for nm in X.names] + [("Y", nm) for nm in Y.names] + [("cone", "*")]
    return FinitePoset._trusted(tuple(names), below, _transpose(below))


def cone_homology_f2(f: PosetMap, through: int) -> dict[int, int]:
    """Reduced F2 homology of the mapping cone of f, degrees -1..through:
    that of the core of `mapping_cone`."""
    cone = mapping_cone(f)
    mask = _core_of(cone, (1 << cone.n) - 1)
    return reduced_homology_f2(cone, through, mask) if mask else {}


def map_is_n_connected(f: PosetMap, n: int) -> bool:
    return is_homologically_connected(mapping_cone(f), n)


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


def _check_keys(d: dict, p: FinitePoset, what: str = "weight") -> None:
    """Every element of ``p``, and nothing else, is a key of ``d``."""
    missing = [nm for nm in p.names if nm not in d]
    if missing:
        raise InputError(f"no {what} for {', '.join(missing)}")
    if len(d) > p.n:  # every element is a key, so some key is no element
        extra = sorted(nm for nm in d if nm not in p.idx)
        raise InputError(f"{what} for {', '.join(extra)}, which is not an element of the poset")


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
    _check_keys(t, Y)
    records = []
    ok = True
    for i, y in enumerate(Y.names):
        ty = t[y]
        if variant == "i":
            fib, side = f.preimage(Y.below[i]), Y.gt_mask(i)
            c1, r1 = ty - 2, f"f_<=({y}) is ({ty}-2)-connected"
            c2, r2 = n - ty - 1, f"target_>({y}) is (n-t-1)-connected"
        else:
            fib, side = f.preimage(Y.above[i]), Y.lt_mask(i)
            c1, r1 = n - ty - 1, f"f_>=({y}) is (n-t-1)-connected"
            c2, r2 = ty - 2, f"target_<({y}) is ({ty}-2)-connected"
        h1 = is_homologically_connected(f.source, c1, mask=fib)
        h2 = is_homologically_connected(Y, c2, mask=side)
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
            m = mask
            while m:
                low = m & -m
                m ^= low
                if X.below[low.bit_length() - 1] & ~mask:
                    raise InputError(f"F({a}) is not closed (downward) in X")
        for i, a in enumerate(A.names):
            m = A.gt_mask(i)
            while m:
                low = m & -m
                m ^= low
                b = A.names[low.bit_length() - 1]
                if self.masks[b] & ~self.masks[a]:
                    raise InputError(
                        f"not contravariant: {a} <= {b} but F({b}) is not inside F({a})"
                    )

    def member(self, a, x) -> bool:
        return bool((self.masks[a] >> self.X.idx[x]) & 1)


def check_nerve_theorem(
    X: FinitePoset, A: FinitePoset, F: CoverFunctor, n: int, tX: dict, tA: dict
) -> TheoremReport:
    """Nerve criterion: (i) the index poset is (n-1)-connected; (ii) each
    A_<a is (tA(a)-2)-connected and F(a) is (n-tA(a)-1)-connected; (iii) each
    X_<x is (tX(x)-2)-connected and A_x = {a : x in F(a)} is
    ((n-1)-tX(x)-1)-connected.  Conclusion: X is (n-1)-connected."""
    _check_keys(tX, X)
    _check_keys(tA, A)
    records = []
    h_i = is_homologically_connected(A, n - 1)
    records.append(HypothesisRecord("(index)", "index poset is (n-1)-connected", h_i))
    ok = h_i
    for i, a in enumerate(A.names):
        ta = tA[a]
        h1 = is_homologically_connected(A, ta - 2, mask=A.lt_mask(i))
        h2 = is_homologically_connected(X, n - ta - 1, mask=F.masks[a])
        records.append(HypothesisRecord(a, f"index_<({a}) is ({ta}-2)-connected", h1))
        records.append(HypothesisRecord(a, f"F({a}) is (n-t-1)-connected", h2))
        ok = ok and h1 and h2
    ax = [0] * X.n  # ax[k]: the mask of A_x = {a : x in F(a)} for x = X.names[k]
    for i, a in enumerate(A.names):
        for k in _bits(F.masks[a]):
            ax[k] |= 1 << i
    for k, x in enumerate(X.names):
        tx = tX[x]
        h1 = is_homologically_connected(X, tx - 2, mask=X.lt_mask(k))
        h2 = is_homologically_connected(A, (n - 1) - tx - 1, mask=ax[k])
        records.append(HypothesisRecord(x, f"X_<({x}) is ({tx}-2)-connected", h1))
        records.append(HypothesisRecord(x, f"A_({x}) is ((n-1)-t-1)-connected", h2))
        ok = ok and h1 and h2
    conclusion = is_homologically_connected(X, n - 1)
    return TheoremReport(hypotheses_hold=ok, conclusion_holds=conclusion, records=records)


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

# largest max_size of a campaign: a draw costs O(n^2), kept or not, and past
# about 48 points most draws have more than MAX_CHAINS chains and are drawn
# again.  16 instances take about 0.1 s at size 64 and 1.2 s at 200, where
# nine draws in ten are resampled (one core of a 2-vCPU machine, Python 3.11)
MAX_FUZZ_SIZE = 64

# largest instance count of a campaign: 100 000 instances take about 15 s
# (nerve) and 19 s (poset-map) at size 12, and 3.5 and 16 min at size 64, so
# a mistyped count fails at once instead of running for days (one core of a
# 2-vCPU machine, Python 3.11)
MAX_FUZZ_COUNT = 100_000


def check_campaign(count: int, max_size: int) -> None:
    """A campaign's bounds: 0 <= count <= MAX_FUZZ_COUNT and
    1 <= max_size <= MAX_FUZZ_SIZE."""
    for what, value, low, high in (("instance count", count, 0, MAX_FUZZ_COUNT),
                                   ("maximum poset size", max_size, 1, MAX_FUZZ_SIZE)):
        if not low <= value <= high:
            bound = f">= {low}" if value < low else f"<= {high}"
            raise InputError(f"{what} must be {bound}, got {value}")


def random_poset(rng: random.Random, max_size: int) -> FinitePoset:
    """A random poset on p0..p(n-1).  The elements are shuffled into a total
    order, and each pair in it is related with a probability drawn once per
    poset.  Every relation goes up that order, so the relation is acyclic
    and is closed in one pass along it: the down-sets below an element are
    closed before its own."""
    n = rng.randint(1, max_size)
    p_edge = rng.uniform(0.08, 0.45)
    order = list(range(n))
    rng.shuffle(order)
    below = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                below[order[j]] |= 1 << order[i]
    for x in order:
        acc = below[x]
        m = acc ^ (1 << x)
        while m:
            low = m & -m
            m ^= low
            acc |= below[low.bit_length() - 1]
        below[x] = acc
    return FinitePoset._trusted(tuple([f"p{i}" for i in range(n)]), below, _transpose(below))


def _chain_count(p: FinitePoset, max_len: int) -> int:
    """Number of chains of length <= max_len, counted per top element:
    the chains of length k+1 ending at j extend those of length k ending
    below j."""
    preds = [_bits(p.lt_mask(j)) for j in range(p.n)]
    ending = [1] * p.n
    total = 0
    for _ in range(min(max_len, p.n)):
        total += sum(ending)
        ending = [sum(map(ending.__getitem__, below)) for below in preds]
    return total


def _oversize(p: FinitePoset, max_len: int) -> bool:
    """Has ``p`` more than MAX_CHAINS chains of length <= max_len?  Every
    chain is a nonempty subset of the points, so a poset with
    2^n - 1 <= MAX_CHAINS never has, and its chains are not counted."""
    return (1 << p.n) - 1 > MAX_CHAINS and _chain_count(p, max_len) > MAX_CHAINS


def random_monotone_map(rng: random.Random, X: FinitePoset, Y: FinitePoset) -> PosetMap:
    full = (1 << Y.n) - 1
    order = sorted(range(X.n), key=lambda i: (bin(X.below[i]).count("1"), i))
    mapping: dict[str, str] = {}
    assigned: dict[int, int] = {}
    for i in order:
        cand = full
        m = X.lt_mask(i)
        while m:
            low = m & -m
            m ^= low
            j = low.bit_length() - 1
            if j in assigned:
                cand &= Y.above[assigned[j]]
        if not cand:
            # no common upper bound: fall back to a constant map
            y0 = Y.names[rng.randrange(Y.n)]
            return PosetMap(X, Y, {nm: y0 for nm in X.names})
        assigned[i] = rng.choice(_bits(cand))
        mapping[X.names[i]] = Y.names[assigned[i]]
    return PosetMap(X, Y, mapping)


def _campaign(name: str, count: int, max_size: int, seed: int, draw, check, minimize) -> FuzzReport:
    """Run ``count`` instances of one campaign.  ``draw(rng)`` gives the
    arguments of ``check`` and ``minimize``, or None for an oversize
    instance that is resampled; every instance whose hypotheses hold and
    whose conclusion fails is minimized into a counterexample dump."""
    check_campaign(count, max_size)
    rng = random.Random(seed)
    satisfied = resampled = done = 0
    counterexamples = []
    while done < count:
        args = draw(rng)
        if args is None:
            resampled += 1
            continue
        rep = check(*args)
        done += 1
        if rep.hypotheses_hold:
            satisfied += 1
            if not rep.conclusion_holds:
                counterexamples.append(minimize(*args))
    return FuzzReport(
        campaign=name,
        seed=seed,
        instances=done,
        hypotheses_satisfied=satisfied,
        counterexamples=counterexamples,
        resampled_oversize=resampled,
    )


def fuzz_poset_map(count: int, max_size: int, seed: int) -> FuzzReport:
    def draw(rng):
        X = random_poset(rng, max_size)
        Y = random_poset(rng, max_size)
        n = rng.randint(-1, 2)
        if _oversize(X, n + 3) or _oversize(Y, n + 3):
            return None
        f = random_monotone_map(rng, X, Y)
        variant = rng.choice(("i", "ii"))
        if rng.random() < 0.5:
            t = {y: rng.randint(-1, 3) for y in Y.names}
        else:
            # informed weights: make the fiber-side hypothesis tight, so the
            # campaign actually exercises instances whose hypotheses hold
            t = {}
            for i, y in enumerate(Y.names):
                fib = f.preimage(Y.below[i] if variant == "i" else Y.above[i])
                c = _connectivity(X, fib, n + 2)
                t[y] = c + 2 if variant == "i" else n - 1 - c
        return f, t, n, variant

    return _campaign("poset-map", count, max_size, seed, draw, check_poset_map_theorem, _minimize_map_instance)


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
    def draw(rng):
        A = random_poset(rng, max(2, max_size // 2))
        X = random_poset(rng, max_size)
        n = rng.randint(0, 2)
        if _oversize(X, n + 3) or _oversize(A, n + 3):
            return None
        F = random_cover(rng, A, X)
        if rng.random() < 0.5:
            tA = {a: rng.randint(-1, 3) for a in A.names}
            tX = {x: rng.randint(-1, 3) for x in X.names}
        else:
            # informed weights: choose each t at the largest value its
            # "below" hypothesis tolerates, so the remaining clauses decide
            tA, tX = [
                {nm: _connectivity(p, p.lt_mask(i), n + 1) + 2
                 for i, nm in enumerate(p.names)}
                for p in (A, X)
            ]
        return X, A, F, n, tX, tA

    return _campaign("nerve", count, max_size, seed, draw, check_nerve_theorem, _minimize_nerve_instance)


# each campaign by name: `poset fuzz --campaign` and its shards read it
CAMPAIGNS = {"poset-map": fuzz_poset_map, "nerve": fuzz_nerve}


def _shrink(size: int, fails) -> int:
    """Greedy one-pass minimization of a counterexample: drop elements
    0, 1, ... in turn while the nonempty rest still ``fails(mask)``; an
    instance that cannot be built does not fail.  Returns the mask kept."""
    mask = (1 << size) - 1
    for i in range(size):
        trial = mask & ~(1 << i)
        try:
            if trial and fails(trial):
                mask = trial
        except (InputError, DomainError):
            pass
    return mask


def _minimize_nerve_instance(X, A, F, n, tX, tA):
    """Drop covered elements while the nerve instance still violates the
    implication."""

    def restrict(mask):
        sub = X.subposet(mask)
        subF = CoverFunctor(A, sub, {a: [x for x in sub.names if F.member(a, x)] for a in A.names})
        return sub, subF, {x: tX[x] for x in sub.names}

    def fails(mask):
        sub, subF, subt = restrict(mask)
        return not check_nerve_theorem(sub, A, subF, n, subt, tA).consistent

    sub, _, subt = restrict(_shrink(X.n, fails))
    return {
        "X": sub.cover_pairs(),
        "X_elements": list(sub.names),
        "A": A.cover_pairs(),
        "A_elements": list(A.names),
        "F": {a: sorted(x for x in sub.names if F.member(a, x)) for a in A.names},
        "n": n,
        "tA": tA,
        "tX": subt,
    }


def _minimize_map_instance(f: PosetMap, t: dict, n: int, variant: str):
    """Drop source elements while the map instance still violates the
    implication."""
    X, Y = f.source, f.target

    def restrict(mask):
        sub = X.subposet(mask)
        return PosetMap(sub, Y, {nm: f.mapping[nm] for nm in sub.names})

    def fails(mask):
        return not check_poset_map_theorem(restrict(mask), t, n, variant).consistent

    g = restrict(_shrink(X.n, fails))
    return {
        "source": g.source.cover_pairs(),
        "source_elements": list(g.source.names),
        "target": Y.cover_pairs(),
        "target_elements": list(Y.names),
        "map": g.mapping,
        "t": t,
        "n": n,
        "variant": variant,
    }


def parse_weights(text: str) -> dict:
    out = {}
    for raw, line in content_lines(text):
        parts = line.split()
        try:
            name, weight = parts
            weight = int(weight)
        except ValueError:
            raise InputError(f"bad weight line: {raw!r}") from None
        if name in out:
            raise InputError(f"second weight for {name}: {raw!r}")
        out[name] = weight
    return out


def parse_cover(text: str, A: FinitePoset, X: FinitePoset) -> CoverFunctor:
    """Functor file: lines ``a : x1 x2 ...``."""
    assignment = {}
    for raw, line in content_lines(text):
        if ":" not in line:
            raise InputError(f"bad cover line: {raw!r}")
        a, xs = line.split(":", 1)
        a = a.strip()
        if a in assignment:
            raise InputError(f"second cover line for {a}: {raw!r}")
        assignment[a] = xs.split()
    return CoverFunctor(A, X, assignment)
