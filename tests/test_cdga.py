import gc
import hashlib
import itertools
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from bigraded import cdga, exactla, posets
from bigraded.cdga import (
    CDGA,
    DGModule,
    HomologyTable,
    Letter,
    _kunneth_split,
    build_paper_complex,
    homology_table,
    matrix_homology_table,
    parse_cdga_file,
    parse_poly,
    verify_vanishing,
)
from bigraded.errors import DomainError, InputError, WorkbenchError
from bigraded.exactla import GF, QQ
from bigraded.grading import VanishingLine
from oracles import poly_add, poly_mul, poly_scale, rank_oracle
from paper_oracle import enumerated_paper_complex
from series_oracle import betti_generating_function, counted_free_series, series_mul


def _cdga(fld, letters, diff=None):
    cx = CDGA(fld, letters)
    cx.set_differential({name: parse_poly(cx, expr) for name, expr in (diff or {}).items()})
    return cx


def _dense(cx, mono):
    """The exponent vector of a sparse monomial of cx."""
    vector = [0] * cx.n
    for i, e in mono:
        vector[i] = e
    return tuple(vector)


def _sparse(vector):
    """The sparse monomial of an exponent vector."""
    return tuple((i, e) for i, e in enumerate(vector) if e)


def _dense_basis(cx, bd):
    return [_dense(cx, m) for m in cx.monomial_basis(bd)]


def test_monomial_basis_examples():
    sigma = Letter(1, 0, 0, "sigma")
    cx = _cdga(QQ, [sigma])
    assert _dense_basis(cx, (3, 0)) == [(3,)]
    tau = Letter(1, 1, 1, "tau")
    cq = _cdga(QQ, [tau])
    assert cq.monomial_basis((2, 2)) == []  # tau^2 = 0, exterior over Q
    c2 = _cdga(GF(2), [tau])
    assert _dense_basis(c2, (2, 2)) == [(2,)]  # char-2 polynomiality


@pytest.mark.parametrize("fld", [QQ, GF(2), GF(3)])
def test_monomial_basis_matches_bruteforce_filter(fld):
    """The pruned enumeration equals filtering every bounded exponent vector
    by bidegree, on alphabets with exterior letters and d = 0 letters."""
    rng = random.Random(fld.char + 31)
    g_max, d_max = 4, 4
    for _ in range(8):
        letters = [
            Letter(rng.randint(1, 3), rng.randint(0, 3), 0, f"x{k}")
            for k in range(rng.randint(1, 5))
        ]
        cx = CDGA(fld, letters)
        exterior = [fld.char != 2 and x.d % 2 == 1 for x in cx.letters]
        bounds = [range(2 if ext else g_max // x.g + 1) for ext, x in zip(exterior, cx.letters)]
        by_bd = {}
        for m in itertools.product(*bounds):
            by_bd.setdefault(cx.mono_bidegree(_sparse(m)), []).append(m)
        bidegrees = [(g, d) for g in range(g_max + 1) for d in range(d_max + 1)]
        bidegrees += [(-1, 0), (0, -1), (2, -1), (-2, 3)]
        for bd in bidegrees:
            assert _dense_basis(cx, bd) == sorted(by_bd.get(bd, []), reverse=True), (bd, letters)


def test_monomial_basis_beyond_recursion_limit():
    n = sys.getrecursionlimit() + 10
    cx = CDGA(QQ, [Letter(1, k, k, f"x{k}") for k in range(n)])
    assert [cx.mono_name(m) for m in cx.monomial_basis((2, 3))] == ["x0*x3", "x1*x2"]


def test_complex_is_freed_by_refcount():
    """A complex and its basis cache hold no reference cycle, so they are
    freed as soon as the last reference goes, without the cycle collector."""
    gc.disable()
    try:
        cx = enumerated_paper_complex("vanishB", (8, 8))
        homology_table(cx, (8, 8))
        ref = weakref.ref(cx)
        del cx
        assert ref() is None
    finally:
        gc.enable()


def test_monomial_basis_independent_of_query_order():
    """The bases a complex keeps, and a module's cell lists, are the same
    whatever order the bidegrees are asked in, in and out of the box, also
    when a small box is asked before a larger one, as those of a fresh
    complex asked for each bidegree on its own."""
    module = enumerated_paper_complex("intstab-f2", (6, 6))
    cells = [(g, d) for g in range(-1, 9) for d in range(-1, 10)]

    def fresh_base():
        return CDGA(module.field, module.base.letters, module.base.diff)

    def fresh_module():
        return DGModule(fresh_base(), module.module_gens, module.mdiff)

    shuffled = list(cells)
    random.Random(5).shuffle(shuffled)
    orders = (cells, cells[::-1], shuffled, [(3, 9), (3, 2), (8, 1), (8, 9)] + cells,
              [(2, 3), (5, 5), (4, 7), (7, 4)] + shuffled)
    for fresh in (fresh_base, fresh_module):
        expected = {bd: fresh().monomial_basis(bd) for bd in cells}
        for order in orders:
            other = fresh()
            for bd in order:
                assert other.monomial_basis(bd) == expected[bd], (fresh.__name__, bd)


# the named complexes at their paper boxes, and the number of `_closing_term`
# solves their build makes: one per letter that rule (b) tries
_PAPER_BOXES = [
    ("vanishA", (8, 8), 0), ("vanishB", (8, 8), 0), ("intstab-f2", (6, 6), 0),
    ("intstab-fl(3)", (6, 6), 0), ("intstab-fl(5)", (6, 6), 0), ("A-algebra-fl(3)", (6, 6), 2),
    ("A-algebra-fl(5)", (6, 6), 1), ("A-algebra-fl(7)", (6, 6), 2),
]


@pytest.mark.parametrize("preset,box,solves", _PAPER_BOXES)
def test_one_enumeration_per_factor_per_table(preset, box, solves, monkeypatch):
    """Building a named complex enumerates only the quotient of each
    `_closing_term` solve, and its homology table enumerates each factor
    (a module's base) once, at the table's top cell."""
    enumerated = []
    enumerate_box = CDGA._enumerate_box

    def counted(cx, g_t, d_t):
        enumerated.append((cx, g_t, d_t))
        return enumerate_box(cx, g_t, d_t)

    monkeypatch.setattr(CDGA, "_enumerate_box", counted)
    split = build_paper_complex(preset, box)
    assert len({id(cx) for cx, _, _ in enumerated}) == len(enumerated) == solves
    del enumerated[:]
    homology_table(split, box)
    assert enumerated == [(getattr(f, "base", f), box[0], box[1] + 1) for f in split.factors]


@pytest.mark.parametrize("preset,box", [(p, box) for p, box, _ in _PAPER_BOXES if "intstab" in p])
def test_module_builds_each_cell_list_once(preset, box, monkeypatch):
    """A module factor keeps each cell's list of pairs: over a homology
    table it asks its base once per generator and cell of the table."""
    asked = []
    basis = CDGA.monomial_basis

    def counted(cx, bd):
        asked.append(cx)
        return basis(cx, bd)

    monkeypatch.setattr(CDGA, "monomial_basis", counted)
    (module,) = build_paper_complex(preset, box).factors
    matrix_homology_table(module, box)
    cells = (box[0] + 1) * (box[1] + 2)
    assert sum(cx is module.base for cx in asked) == len(module.module_gens) * cells
    assert module.monomial_basis(box) is module.monomial_basis(box)


@pytest.mark.parametrize(
    "preset,ell,box",
    [("vanishB", None, (12, 12)), ("intstab-f2", None, (8, 8)), ("A-algebra-fl", 5, (7, 7))],
)
def test_basis_sizes_match_generating_function(preset, ell, box):
    """Every basis the homology table of the box uses has the size the
    generating function of the alphabet predicts; no enumeration is shared."""
    cx = enumerated_paper_complex(preset, box, ell=ell)
    cx = getattr(cx, "base", cx)  # the intstab presets are modules over a base
    cells = (box[0], box[1] + 1)
    sizes = betti_generating_function(cx.letters, cells, cx.field.char == 2)
    sizes[(0, 0)] = 1
    for g in range(cells[0] + 1):
        for d in range(cells[1] + 1):
            assert len(cx.monomial_basis((g, d))) == sizes.get((g, d), 0), (g, d)


def _matrix_digest(cx, box):
    h = hashlib.sha256()
    for g in range(box[0] + 1):
        for d in range(1, box[1] + 2):
            m = cx.differential_matrix((g, d))
            dense = [[m.field.zero()] * m.ncols for _ in m.rows]
            for row, pairs in zip(dense, m.rows):
                for j, x in pairs:
                    row[j] = x
            h.update(repr((g, d, m.nrows, m.ncols, dense)).encode())
    return h.hexdigest()


# sha256 over (g, d, nrows, ncols, rows) of every differential matrix a
# homology table of the paper's box reads: pins the bases, their order and
# every sign, which a rank check cannot see
MATRIX_DIGESTS = {
    "vanishA": "425249b003bf0cb4c0c47c799c7ec8ce5af5543e4b6a60f8076897bc9b1206ca",
    "vanishB": "576ca0aea4c9bf2ef928ca5544dfb5a4b6634d33bb2be2fb669e98ff9a9f9f7d",
    "intstab-f2": "efc44432ea580116b4b2531ecdfb3ff6dcaac2f012260fcb9f2cd73aeafbdf32",
    "intstab-fl(3)": "cf6a2448877d21808ef75db88566e1f2669156e44954d5ebb4798e2382673d48",
    "intstab-fl(5)": "470e645e77bfc1c75717bdfebd3cb375acf99d507fa4c33b9720df3236576a54",
    "A-algebra-fl(3)": "c96d6d92e36b8dbfa231ba4e3cb788ee067a599c4ef74656883f5a103cf7e652",
    "A-algebra-fl(5)": "a3af6c55f6c2ebf7575022e7bb2e3db872589e109c8af3e317e24e5e25e7ddc7",
}


@pytest.mark.parametrize("key", sorted(MATRIX_DIGESTS))
def test_differential_matrices_match_recorded_digests(key):
    preset, _, ell = key.rstrip(")").partition("(")
    box = (8, 8) if preset.startswith("vanish") else (6, 6)
    cx = enumerated_paper_complex(preset, box, ell=int(ell) if ell else None)
    assert _matrix_digest(cx, box) == MATRIX_DIGESTS[key]


VANISHB_14 = {
    (0, 0): 1, (3, 3): 1, (4, 4): 1, (4, 5): 1, (5, 4): 1, (5, 5): 3, (5, 6): 1,
    (6, 5): 2, (6, 6): 4, (6, 7): 2, (7, 6): 2, (7, 7): 7, (7, 8): 6, (7, 9): 1,
    (8, 7): 3, (8, 8): 13, (8, 9): 12, (8, 10): 3, (9, 8): 6, (9, 9): 21, (9, 10): 22,
    (9, 11): 8, (9, 12): 1, (10, 8): 1, (10, 9): 12, (10, 10): 35, (10, 11): 40,
    (10, 12): 20, (10, 13): 4, (11, 9): 2, (11, 10): 20, (11, 11): 62, (11, 12): 78,
    (11, 13): 44, (11, 14): 11, (12, 10): 3, (12, 11): 33, (12, 12): 109, (12, 13): 148,
    (12, 14): 94, (13, 11): 7, (13, 12): 60, (13, 13): 186, (13, 14): 268, (14, 12): 13,
    (14, 13): 105, (14, 14): 320,
}


# sha256 of the sorted (g, d, dim) cells of the (64,64) table of each named
# complex, recorded before the bases came from one enumeration per box
_TABLES_64 = {
    "vanishA": "068d249ccdb60b08c9a01ad508b0245519286d928483cb639a85079ec1cf9574",
    "vanishB": "2436fab2104b198f4efc2e2048ee2f6d3a1b82541bb5422ad2e9798171250354",
    "intstab-f2": "14006ff7658e294a5e7ce298e36d8b2a053cfcda8a24312327fb854f4c2c0a51",
    "intstab-fl(3)": "94b58bb34a7d9a146987ca9df02cfeb38c47b9b2c79da116774d38e5b1417ce5",
    "intstab-fl(5)": "e2afa3878082075aba366aede9ee1771562a0bf3d31aab4cdfdaa3649b0d83cc",
}


@pytest.mark.parametrize("preset", sorted(_TABLES_64))
def test_tables_at_64_match_recorded_digests(preset):
    table = homology_table(build_paper_complex(preset, (64, 64)), (64, 64))
    digest = hashlib.sha256(repr(sorted(table.dims.items())).encode()).hexdigest()
    assert digest == _TABLES_64[preset]


def test_vanishB_table_past_the_paper_box():
    """vanishB at (14,14), 1124 letters, against its recorded table."""
    table = homology_table(build_paper_complex("vanishB", (14, 14)), (14, 14))
    assert table == HomologyTable("Q", (14, 14), VANISHB_14)


@pytest.mark.parametrize(
    "preset,ell,box",
    [(p, ell, (8, 8)) for p, ell in (("vanishA", None), ("vanishB", None))]
    + [
        (p, ell, (6, 6))
        for p, ell in (("intstab-f2", None), ("intstab-fl", 3), ("intstab-fl", 5),
                       ("A-algebra-fl", 2), ("A-algebra-fl", 3), ("A-algebra-fl", 5))
    ]
    + [
        (p, ell, (12, 12))
        for p, ell in (("vanishA", None), ("vanishB", None), ("intstab-f2", None),
                       ("intstab-fl", 3), ("A-algebra-fl", 5))
    ]
    + [("vanishB", None, (16, 16))]
    # boxes that leave out some of the letters the differential names
    + [
        (p, ell, box)
        for p, ell in (("vanishA", None), ("vanishB", None), ("intstab-f2", None),
                       ("intstab-fl", 3), ("A-algebra-fl", 2), ("A-algebra-fl", 5))
        for box in ((2, 2), (3, 1))
    ],
)
def test_counted_split_equals_the_enumerated_complex(preset, ell, box):
    """The split `build_paper_complex` makes from named letters and letter
    counts has the table of the complex on the whole enumerated alphabet,
    read through its own split and from its matrices, in any box."""
    table = homology_table(build_paper_complex(preset, box, ell=ell), box)
    oracle = enumerated_paper_complex(preset, box, ell=ell)
    assert table == homology_table(oracle, box)
    assert table == matrix_homology_table(oracle, box)


def test_split_basis_enumerates_each_factor_once(monkeypatch):
    """A split's basis asks every factor for its top cell first, so each
    factor enumerates its box once, and the basis is the one built from
    the factors' own cells."""
    split = build_paper_complex("vanishB", (8, 8))
    expected = [
        (m1, m2)
        for g in range(9)
        for d in range(9)
        for m1 in split.factors[0].monomial_basis((g, d))
        for m2 in split.factors[1].monomial_basis((8 - g, 8 - d))
    ]
    enumerated = []
    enumerate_box = CDGA._enumerate_box

    def counted(cx, g_t, d_t):
        enumerated.append((cx, g_t, d_t))
        return enumerate_box(cx, g_t, d_t)

    monkeypatch.setattr(CDGA, "_enumerate_box", counted)
    split = build_paper_complex("vanishB", (8, 8))
    assert split.monomial_basis((8, 8)) == expected
    assert enumerated == [(f, 8, 8) for f in split.factors]


def test_split_lists_the_basis_of_its_factors():
    """A split's basis is the tensor product of its factors' bases; a module
    preset splits into its one module factor."""
    split = build_paper_complex("vanishB", (8, 8))
    assert len(split.factors) == 2
    for bd in [(0, 0), (2, 1), (6, 5), (8, 8), (8, -1)]:
        expected = [
            (m1, m2)
            for g in range(bd[0] + 1)
            for d in range(bd[1] + 1)
            for m1 in split.factors[0].monomial_basis((g, d))
            for m2 in split.factors[1].monomial_basis((bd[0] - g, bd[1] - d))
        ]
        assert split.monomial_basis(bd) == expected, bd
    module = build_paper_complex("intstab-f2", (6, 6))
    (factor,) = module.factors
    assert isinstance(factor, DGModule)
    assert module.monomial_basis((6, 6)) == [(m,) for m in factor.monomial_basis((6, 6))]


def test_zero_exponents_give_the_unit():
    cx = _cdga(QQ, [Letter(1, 0, 0, "x"), Letter(1, 1, 1, "y")])
    assert cx.mono_of({"x": 0}) == ()
    assert cx.mono_of({"x": 0, "y": 1}) == cx.mono_of({"y": 1}) == ((1, 1),)
    assert parse_poly(cx, "x^0") == {(): Fraction(1)}
    assert parse_poly(cx, "2*x^0*y") == {((1, 1),): Fraction(2)}
    with pytest.raises(InputError):
        cx.mono_of({"z": 0})


def test_odd_squares_die_in_products():
    cx = _cdga(QQ, [Letter(1, 0, 0, "x"), Letter(1, 1, 1, "y")])
    y, y2 = cx.mono_of({"y": 1}), cx.mono_of({"y": 2})
    assert cx.mono_mul(y, y) is None
    assert cx.mono_mul((), y2) is None and cx.mono_mul(y2, ()) is None
    assert cx.mono_mul(cx.mono_of({"x": 1}), y) == (1, ((0, 1), (1, 1)))
    assert poly_mul(cx, {(): Fraction(1)}, parse_poly(cx, "y^2 + x*y")) == {((0, 1), (1, 1)): 1}


def test_differential_given_as_exponent_vectors():
    letters = [Letter(2, 1, 1, "b"), Letter(2, 2, 2, "rho2")]
    dense = CDGA(GF(3), letters, {"rho2": {(1, 0): 1}})
    assert dense.diff == {"rho2": {((0, 1),): 1}}
    assert dense.diff == CDGA(GF(3), letters, {"rho2": {((0, 1),): 1}}).diff
    with pytest.raises(InputError):
        CDGA(GF(3), letters, {"rho2": {(1,): 1}})


def test_set_differential_stores_canonical_coefficients():
    """Coefficients are stored as the field's `of` makes them: residues in
    [0, ell) over F_ell, Fractions over Q, and a coefficient that is zero in
    the field is dropped."""
    letters = [Letter(2, 1, 1, "b"), Letter(2, 2, 2, "rho2")]
    for c in (4, -2, Fraction(-1, 2)):
        assert CDGA(GF(3), letters, {"rho2": {(1, 0): c}}).diff == {"rho2": {((0, 1),): 1}}
    assert CDGA(GF(3), letters, {"rho2": {(1, 0): 3}}).diff == {}
    (c,) = CDGA(QQ, letters, {"rho2": {(1, 0): 2}}).diff["rho2"].values()
    assert type(c) is Fraction and c == 2


@pytest.mark.parametrize(
    "preset,ell",
    [("vanishA", None), ("vanishB", None), ("intstab-f2", None), ("intstab-fl", 3), ("A-algebra-fl", 5)],
)
def test_homology_table_with_rank_oracle(preset, ell, monkeypatch):
    """The counted split equals the matrix path of the whole enumerated
    complex (at a box that holds every paper box), and so does the matrix
    path on the dense rank oracle."""
    box = (8, 8)
    expected = matrix_homology_table(enumerated_paper_complex(preset, box, ell=ell), box)
    assert homology_table(build_paper_complex(preset, box, ell=ell), box) == expected
    monkeypatch.setattr(exactla, "rank", rank_oracle)
    assert matrix_homology_table(enumerated_paper_complex(preset, box, ell=ell), box) == expected


def test_differential_matrix_hand_leibniz():
    # d(rho) = b: the column of rho*sigma at (3,2) has a single entry at b*sigma
    letters = [Letter(1, 0, 0, "sigma"), Letter(2, 1, 1, "b"), Letter(2, 2, 2, "rho")]
    cx = _cdga(QQ, letters, {"rho": "b"})
    cols = cx.monomial_basis((3, 2))
    rows = cx.monomial_basis((3, 1))
    assert cx.mono_name(cols[0]) == "sigma*rho"
    mat = cx.differential_matrix((3, 2))
    assert mat.nrows == 1 and rows == [cx.mono_of({"sigma": 1, "b": 1})]
    assert mat.rows[0][0] == (0, 1)


def test_zero_differential_homology_equals_monomial_counts():
    letters = [Letter(1, 0, 0, "x"), Letter(1, 1, 1, "y"), Letter(2, 2, 2, "z")]
    cx = _cdga(QQ, letters)
    t = homology_table(cx, (4, 4))
    for g in range(0, 5):
        for d in range(0, 5):
            assert t.dim(g, d) == len(cx.monomial_basis((g, d)))


def test_power_rule_over_q():
    # d(rho^k) = k rho^(k-1) d(rho)
    letters = [Letter(2, 1, 1, "b"), Letter(2, 2, 2, "rho")]
    cx = _cdga(QQ, letters, {"rho": "b"})
    for k in (1, 2, 3):
        out = cx.delta_mono(cx.mono_of({"rho": k}))
        assert out == {cx.mono_of({"rho": k - 1, "b": 1}): Fraction(k)}


def _random_cdga(rng, fld, prefix="x"):
    n = rng.randint(2, 5)
    letters = []
    for i in range(n):
        letters.append(Letter(rng.randint(1, 3), rng.randint(0, 4), 0, f"{prefix}{i}"))
    cx = CDGA(fld, letters)
    diff = {}
    # random differential: each letter may map to a random polynomial of the
    # right bidegree built from other letters, provided the target is closed
    for x in sorted(letters):
        tgt = (x.g, x.d - 1)
        if x.d == 0:
            continue
        pool = cx.monomial_basis(tgt)
        pool = [
            m
            for m in pool
            if all(
                cx.letters[i].name == x.name or cx.letters[i].name not in diff or not e
                for i, e in enumerate(_dense(cx, m))
            )
            and not _dense(cx, m)[cx.index[x.name]]
        ]
        if pool and rng.random() < 0.7:
            poly = {}
            for m in pool:
                if rng.random() < 0.5:
                    poly[m] = fld.of(rng.randint(1, 4))
            if poly:
                diff[x.name] = poly
    try:
        cx.set_differential(diff)
    except InputError:
        pass  # the complex keeps its zero differential
    return cx


def _random_split_cdga(rng, fld):
    """Two or three random CDGAs with a differential side by side, plus
    closed letters: a complex with several active components."""
    blocks = []
    for prefix in "abc"[: rng.randint(2, 3)]:
        cx = _random_cdga(rng, fld, prefix)
        while not cx.diff:
            cx = _random_cdga(rng, fld, prefix)
        blocks.append(cx)
    closed = [Letter(rng.randint(1, 3), rng.randint(0, 4), 0, f"z{i}") for i in range(rng.randint(1, 3))]
    out = CDGA(fld, [x for cx in blocks for x in cx.letters] + closed)
    out.set_differential({
        name: {out.mono_of({cx.letters[i].name: e for i, e in m}): c for m, c in poly.items()}
        for cx in blocks
        for name, poly in cx.diff.items()
    })
    return out


def _random_module(rng, fld):
    """A module (1, e) over a random split CDGA, with d(e) a random cycle
    times 1 or, now and then, no module differential."""
    base = _random_split_cdga(rng, fld)
    cycles = [
        (g, d, m)
        for g in range(1, 4)
        for d in range(0, 4)
        for m in base.monomial_basis((g, d))
        if not base.delta_mono(m)
    ]
    g, d, m = rng.choice(cycles)
    mdiff = {"e": [({m: fld.of(rng.randint(1, 4))}, "1")]} if rng.random() < 0.8 else {}
    return DGModule(base, [("1", 0, 0, 0), ("e", g, d + 1, 0)], mdiff)


def test_every_homology_path_goes_through_chain_homology(monkeypatch):
    """CDGA factors and posets read their homology from one routine,
    `exactla.chain_homology`, which a CDGA table calls once per genus with a
    nonempty basis and a poset once."""
    calls = []
    chain_homology = exactla.chain_homology

    def counting(*args, **kwargs):
        calls.append(args)
        return chain_homology(*args, **kwargs)

    def genera(factors, box):  # the (factor, genus) pairs with a nonempty basis
        g_max, d_max = box
        return sum(
            any(f.monomial_basis((g, d)) for d in range(d_max + 2))
            for f in factors
            for g in range(g_max + 1)
        )

    monkeypatch.setattr(exactla, "chain_homology", counting)
    rng = random.Random(2033)
    preset = build_paper_complex("vanishB", (4, 4))
    split = _random_split_cdga(rng, GF(3))
    cx = _random_cdga(rng, QQ)
    sphere = posets.subsets_poset(4)
    paths = [
        (lambda: homology_table(preset, (4, 4)), genera(preset.factors, (4, 4))),
        (lambda: homology_table(split, (4, 4)), genera(_kunneth_split(split, (4, 5)).factors, (4, 4))),
        (lambda: matrix_homology_table(cx, (3, 5)), genera([cx], (3, 5))),
        (lambda: posets.reduced_homology_f2(sphere), 1),
        (lambda: posets.reduced_homology_q(sphere), 1),
        (lambda: posets.reduced_homology_z(sphere), 1),
    ]
    for path, count in paths:
        calls.clear()
        path()
        assert len(calls) == count > 0


@pytest.mark.parametrize("fld", [QQ, GF(2), GF(3)])
def test_split_equals_matrix_path_on_random_cdgas(fld):
    rng = random.Random(fld.char + 211)
    for _ in range(10):
        cx = _random_split_cdga(rng, fld)
        split = _kunneth_split(cx, (6, 7))
        assert len(split.factors) >= 2 and split.closed
        assert homology_table(cx, (6, 6)) == matrix_homology_table(cx, (6, 6))


@pytest.mark.parametrize("fld", [QQ, GF(2), GF(3)])
def test_split_equals_matrix_path_on_random_modules(fld):
    rng = random.Random(fld.char + 307)
    for _ in range(8):
        mod = _random_module(rng, fld)
        assert homology_table(mod, (6, 6)) == matrix_homology_table(mod, (6, 6))


def _decomposable(m):
    return len(m) > 1 or m[0][1] > 1


def _random_changeable_cdga(rng, fld):
    """A random split CDGA with letters added for each change of variables:
    a closed y and an x with d(x) = c*y + p for a decomposable cycle p
    (rule (a)), and an x' with d(x') = d(c'*m) for a decomposable m that is
    no cycle (rule (b)), where the base has such monomials."""
    base = _random_split_cdga(rng, fld)
    monos = [((g, d), m) for g in range(2, 5) for d in range(4) for m in base.monomial_basis((g, d))]
    cycles = [(bd, m) for bd, m in monos if _decomposable(m) and not base.delta_mono(m)]
    chains = [(bd, m) for bd, m in monos if _decomposable(m) and base.delta_mono(m)]
    letters, diff = list(base.letters), {}

    def unit():
        return fld.of(rng.randint(1, fld.char - 1 if fld.char else 4))

    def named(poly):
        return {tuple((base.letters[i].name, e) for i, e in m): c for m, c in poly.items()}

    if cycles:
        (g, d), m = rng.choice(cycles)
        letters += [Letter(g, d, 0, "y"), Letter(g, d + 1, 0, "x")]
        diff["x"] = {(("y", 1),): unit(), **named({m: unit()})}
    if chains:
        (g, d), m = rng.choice(chains)
        letters.append(Letter(g, d, 0, "x'"))
        diff["x'"] = named(poly_scale(base, base.delta_mono(m), unit()))
    cx = CDGA(fld, letters)
    diff.update({name: named(poly) for name, poly in base.diff.items()})
    cx.set_differential({
        name: {cx.mono_of(dict(m)): c for m, c in poly.items()} for name, poly in diff.items() if poly
    })
    return cx


@pytest.mark.parametrize("fld", [QQ, GF(2), GF(3), GF(5)])
def test_changes_of_variables_keep_the_table_on_random_cdgas(fld):
    """Random CDGAs where both rules apply: the table through the changes
    of variables and the split equals that of the whole complex's
    matrices, and both rules are made."""
    rng = random.Random(fld.char + 401)
    made = Counter()
    for _ in range(8):
        cx = _random_changeable_cdga(rng, fld)
        split = _kunneth_split(cx, (5, 6))
        made.update(rule for rule, _, _ in split.substitutions)
        _assert_substitutions_commute(cx, split)
        assert homology_table(cx, (5, 5)) == matrix_homology_table(cx, (5, 5))
    assert made["a"] >= 3 and made["b"] >= 3, made


def _apply(cx, images, poly):
    """The image of poly under the algebra map sending letter index i to
    images[i] and fixing the other letters."""
    out = {}
    for m, c in poly.items():
        term = {(): c}
        for i, e in m:
            for _ in range(e):
                term = poly_mul(cx, term, images.get(i, {((i, 1),): cx.field.one()}))
        out = poly_add(cx, out, term)
    return out


def _assert_substitutions_commute(cx, split):
    """phi d' = d phi on every letter of cx, where d' is the differential
    of the split (its factors', zero on closed letters) and phi sends each
    substituted letter to its recorded image, which is that letter times a
    unit plus terms without it."""
    images = {}
    for _, letter, image in split.substitutions:
        i = cx.index[letter]
        images[i] = {cx.mono_of(dict(m)): c for m, c in image.items()}
        assert images[i].get(((i, 1),)), letter
        assert all(j != i for m in images[i] if m != ((i, 1),) for j, _ in m), letter
    new_diff = {}
    for factor in split.factors:
        algebra = factor.base if isinstance(factor, DGModule) else factor
        new_diff.update({name: algebra._push(cx, poly) for name, poly in algebra.diff.items()})
    for i, x in enumerate(cx.letters):
        lhs = _apply(cx, images, new_diff.get(x.name, {}))
        rhs = cx.delta_poly(images.get(i, {((i, 1),): cx.field.one()}))
        assert lhs == rhs, x.name


_RULES = {"vanishA": "", "vanishB": "", "intstab-f2": "", "intstab-fl(3)": "", "intstab-fl(5)": "",
          "A-algebra-fl(2)": "a", "A-algebra-fl(3)": "b", "A-algebra-fl(5)": "a",
          "A-algebra-fl(7)": "ab", "A-algebra-fl(11)": "ab", "A-algebra-fl(13)": "ab"}


@pytest.mark.parametrize("preset", sorted(_RULES))
def test_preset_substitutions_commute_with_both_differentials(preset):
    """On every letter of every named complex, the recorded changes of
    variables commute with the differential as given and the split's; the
    rules made are (a) where d(rho2) keeps its sigma*tau term and (b) where
    10 is a unit, and none on vanishA, vanishB and the intstab modules."""
    box, letter_box = (8, 8), (8, 9)
    spec = cdga._preset(preset)
    for cx in (cdga._assemble(spec, spec.named, letter_box), enumerated_paper_complex(preset, box)):
        split = _kunneth_split(cx, letter_box)
        assert "".join(rule for rule, _, _ in split.substitutions) == _RULES[preset]
        _assert_substitutions_commute(cx if not isinstance(cx, DGModule) else cx.base, split)
    assert build_paper_complex(preset, box).substitutions == split.substitutions


# sha256 of the sorted (g, d, dim) cells of matrix_homology_table at (32,32)
# of the named A-algebra-fl complex as given, with no change of variables
_A_ALGEBRA_32 = {
    2: "8958bfab571fdae939a07dd3e01767425e334424f4e6d9d93ec17ec9b7d67ec5",
    3: "2fedf520bc19dd1dec8271a37c630ab65258feb4b830c54dfd5cdb557a38490e",
    5: "94afc61babe13f9b885773f1485d6978c5c870547139b92ca9924bdb1b8e0609",
    7: "798c8b0cde93ce9ebc3cf9ae456185c8d818417f828d4b5711f1da5799b5afad",
    11: "d0f68816640d810f0cebf82168575feccbd6cb1d578af8d16aa164a051cf724a",
    13: "91a1bc9ee1000802705a82fd4aaf9eea4d811a26cffb829d7172f229a432ce87",
}


@pytest.mark.parametrize("ell", sorted(_A_ALGEBRA_32))
def test_a_algebra_split_equals_the_unsubstituted_matrices(ell):
    """The named A-algebra-fl complex through its changes of variables and
    split has the table of its own matrices as given: live at (16,16), and
    at (32,32) against the recorded digest of that table."""
    spec = cdga._preset("A-algebra-fl", ell)
    for box, want in (((16, 16), None), ((32, 32), _A_ALGEBRA_32[ell])):
        letter_box = (box[0], box[1] + 1)
        cx = cdga._assemble(spec, [x for x in spec.named if x.g <= box[0]], letter_box)
        table = homology_table(_kunneth_split(cx, letter_box), box)
        if want is None:
            assert table == matrix_homology_table(cx, box)
        else:
            assert hashlib.sha256(repr(sorted(table.dims.items())).encode()).hexdigest() == want


@pytest.mark.parametrize("fld", [QQ, GF(2), GF(3)])
def test_d_squared_zero_on_random_monomials(fld):
    rng = random.Random(7 if fld is QQ else fld.char)
    for _ in range(12):
        cx = _random_cdga(rng, fld)
        for g in range(0, 5):
            for d in range(0, 5):
                for m in cx.monomial_basis((g, d)):
                    assert cx.delta_poly(cx.delta_mono(m)) == {}


@pytest.mark.parametrize("fld", [QQ, GF(3)])
def test_leibniz_rule_on_random_monomial_pairs(fld):
    rng = random.Random(23)
    for _ in range(10):
        cx = _random_cdga(rng, fld)
        monos = [m for g in range(4) for d in range(4) for m in cx.monomial_basis((g, d))]
        for _ in range(30):
            m1, m2 = rng.choice(monos), rng.choice(monos)
            sm = cx.mono_mul(m1, m2)
            lhs = cx.delta_mono(sm[1]) if sm else {}
            if sm and sm[0] < 0:
                lhs = poly_scale(cx, lhs, fld.of(-1))
            d1 = sum(e * x.d for e, x in zip(_dense(cx, m1), cx.letters))
            rhs = poly_mul(cx, cx.delta_mono(m1), {m2: fld.one()})
            sign = fld.of(-1 if (fld.char != 2 and d1 % 2) else 1)
            rhs = poly_add(cx, rhs, poly_scale(cx, poly_mul(cx, {m1: fld.one()}, cx.delta_mono(m2)), sign))
            assert lhs == rhs


def _delta_recursive(cx, mono):
    """Independent differential: peel the leftmost letter and apply the
    two-factor Leibniz rule, recursing on the remainder."""
    f = cx.field
    vector = _dense(cx, mono)
    first = next((i for i, e in enumerate(vector) if e), None)
    if first is None:
        return {}
    x = cx.letters[first]
    single = _sparse(1 if i == first else 0 for i in range(cx.n))
    rest = _sparse(e - 1 if i == first else e for i, e in enumerate(vector))
    out = {}
    dx = cx.diff.get(x.name, {})
    for m2, c in poly_mul(cx, dx, {rest: f.one()}).items():
        out = poly_add(cx, out, {m2: c})
    sign = f.of(-1 if (f.char != 2 and x.d % 2 == 1) else 1)
    tail = poly_scale(cx, poly_mul(cx, {single: f.one()}, _delta_recursive(cx, rest)), sign)
    return poly_add(cx, out, tail)


@pytest.mark.parametrize("fld", [QQ, GF(2), GF(5)])
def test_delta_matches_recursive_leibniz_oracle(fld):
    rng = random.Random(fld.char + 101)
    for _ in range(10):
        cx = _random_cdga(rng, fld)
        for g in range(0, 5):
            for d in range(0, 5):
                for m in cx.monomial_basis((g, d)):
                    assert cx.delta_mono(m) == _delta_recursive(cx, m), (
                        cx.mono_name(m),
                        [(x.name, x.g, x.d) for x in cx.letters],
                        cx.diff,
                    )


def test_koszul_factor_rational():
    letters = [Letter(2, 1, 1, "b"), Letter(2, 2, 2, "rho")]
    cx = _cdga(QQ, letters, {"rho": "b"})
    t = homology_table(cx, (8, 8))
    assert t.sorted_items() == [((0, 0), 1)]


def test_koszul_factor_f2():
    letters = [Letter(2, 1, 1, "qs"), Letter(2, 2, 2, "rho2")]
    cx = _cdga(GF(2), letters, {"rho2": "qs"})
    t = homology_table(cx, (8, 8))
    assert t.sorted_items() == [((0, 0), 1), ((4, 4), 1), ((8, 8), 1)]


@pytest.mark.parametrize("ell,lowest", [(3, (6, 5)), (5, (10, 9))])
def test_koszul_factor_odd(ell, lowest):
    fld = GF(ell)
    letters = [Letter(2, 1, 1, "b"), Letter(2, 2, 2, "rho2")]
    cx = CDGA(fld, letters, {"rho2": {(1, 0): fld.of(Fraction(-1, 2))}})
    t = homology_table(cx, (2 * ell, 2 * ell))
    positive = [gd for gd, n in t.sorted_items() if gd != (0, 0)]
    assert min(positive) == lowest


def test_euler_characteristic_per_genus_column():
    # chi of the chain column equals chi of homology, column by column
    letters = [Letter(1, 0, 0, "s"), Letter(2, 1, 1, "b"), Letter(2, 2, 2, "r")]
    cx = _cdga(QQ, letters, {"r": "b"})
    g_max = 6
    d_top = 14  # beyond any monomial degree at genus <= 6 for this alphabet
    t = homology_table(cx, (g_max, d_top))
    for g in range(0, g_max + 1):
        chain = sum((-1) ** d * len(cx.monomial_basis((g, d))) for d in range(d_top + 1))
        hom = sum((-1) ** d * t.dim(g, d) for d in range(d_top + 1))
        assert chain == hom


def test_vanishA_certification():
    cx = build_paper_complex("vanishA", (8, 8))
    rep = verify_vanishing(cx, Fraction(3, 4), (8, 8))
    assert rep.certified


def test_vanishA_no_letters_named_sigma_lambda():
    cx = enumerated_paper_complex("vanishA", (6, 6))
    assert "sigma" not in cx.index and "lambda" not in cx.index
    assert "[sigma,sigma]" in cx.index and "rho" in cx.index


def test_vanishB_certification():
    cx = build_paper_complex("vanishB", (8, 8))
    rep = verify_vanishing(cx, Fraction(4, 5), (8, 8))
    assert rep.certified


def test_vanishB_would_fail_at_three_quarters_plus_epsilon():
    # sanity: the certificate is not vacuous; some cell sits near the line
    cx = build_paper_complex("vanishB", (8, 8))
    rep = verify_vanishing(cx, Fraction(9, 10), (8, 8))
    assert not rep.certified


def _check_report(report) -> bool:
    """Whether the report is certified, once it is checked against its
    parts: its split's factors' tables, by the matrix path, times the free
    series of its closed letters' counts give its table, whose first cell
    below its line is its violation, and it is certified when there is none."""
    box, split = report.table.box, report.split
    series = counted_free_series(split.closed, box, split.field.char == 2)
    for factor in split.factors:
        series = series_mul(series, matrix_homology_table(factor, box).dims, box)
    assert {gd: n for gd, n in series.items() if n} == report.table.dims
    below = [(g, d, n) for (g, d), n in report.table.sorted_items() if report.line.strictly_below((g, d))]
    assert report.violation == (below[0] if below else None)
    assert report.certified == (not below)
    return report.certified


_PRESETS = ["vanishA", "vanishB", "intstab-f2", "intstab-fl(3)", "intstab-fl(5)",
            "A-algebra-fl(2)", "A-algebra-fl(3)", "A-algebra-fl(5)"]


@pytest.mark.parametrize("preset", [*_PRESETS, "A-algebra-fl(7)"])
def test_a_preset_report_holds_the_parts_of_its_table(preset):
    """The report keeps the split it was given, whose parts give its table;
    every preset but A-algebra-fl is certified at its default line."""
    box = (16, 16)
    split = build_paper_complex(preset, box)
    rep = verify_vanishing(split, cdga.default_line(preset), box)
    assert rep.split is split and rep.split.factors
    assert _check_report(rep) == (not preset.startswith("A-algebra-fl"))


@pytest.mark.parametrize("fld", [QQ, GF(2), GF(3)])
def test_a_report_splits_a_complex_once_into_the_parts_of_its_table(fld, monkeypatch):
    """Given a complex, the report holds its split, made once, whose parts
    give the table of the matrix path."""
    calls = []
    split_once = cdga._kunneth_split

    def counting(*args):
        calls.append(args)
        return split_once(*args)

    monkeypatch.setattr(cdga, "_kunneth_split", counting)
    rng = random.Random(fld.char + 409)
    for _ in range(8):
        cx = _random_split_cdga(rng, fld)
        line = VanishingLine(Fraction(rng.randint(1, 4), rng.randint(1, 4)), Fraction(rng.randint(0, 6)))
        calls.clear()
        rep = verify_vanishing(cx, line, (6, 6))
        assert len(calls) == 1 and len(rep.split.factors) >= 2 and rep.line is line
        assert rep.table == matrix_homology_table(cx, (6, 6))
        _check_report(rep)


def test_each_preset_carries_its_default_line():
    """A preset's default line is library data: 4/5 for vanishB, the
    paper's 3/4 for the others, and for any other complex the same 3/4.
    A-algebra-fl has no paper line, and sigma at (1,0) violates its default."""
    lines = {"vanishA": (3, 4), "vanishB": (4, 5), "intstab-f2": (3, 4), "intstab-fl(3)": (3, 4),
             "intstab-fl(5)": (3, 4), "A-algebra-fl(3)": (3, 4), "A-algebra-fl(7)": (3, 4)}
    for preset, (p, q) in lines.items():
        assert cdga._preset(preset).line == cdga.default_line(preset) == VanishingLine(Fraction(p, q)), preset
    assert cdga.default_line("intstab-fl", 5) == cdga.default_line() == cdga.DEFAULT_LINE
    assert cdga.DEFAULT_LINE == VanishingLine(Fraction(3, 4))
    split = build_paper_complex("A-algebra-fl(5)", (4, 4))
    assert verify_vanishing(split, cdga.default_line("A-algebra-fl(5)"), (4, 4)).violation == (1, 0, 1)
    with pytest.raises(InputError, match="^unknown preset: nonsense$"):
        cdga.default_line("nonsense")


@pytest.mark.parametrize(
    "preset,killed",
    [
        ("vanishA", {"rho", "[sigma,sigma]"}),
        ("vanishB", {"rho", "[sigma,sigma]", "rho'", "[sigma,lambda]"}),
    ],
)
def test_vanish_table_matches_kunneth_prediction(preset, killed):
    # the complex factors as (acyclic Koszul pairs) tensor (letters with zero
    # differential), so its homology must equal the monomial counts of the
    # surviving letters; this checks every cell, not only the vanishing region
    box = (7, 7)
    cx = enumerated_paper_complex(preset, box)
    table = homology_table(build_paper_complex(preset, box), box)
    survivors = [x for x in cx.letters if x.name not in killed]
    free = CDGA(QQ, survivors, {})
    for g in range(box[0] + 1):
        for d in range(box[1] + 1):
            assert table.dim(g, d) == len(free.monomial_basis((g, d))), (preset, g, d)


def test_intstab_presets_certified():
    m2 = build_paper_complex("intstab-f2", (6, 6))
    assert verify_vanishing(m2, Fraction(3, 4), (6, 6)).certified
    for ell in (3, 5):
        m = build_paper_complex("intstab-fl", (6, 6), ell=ell)
        assert verify_vanishing(m, Fraction(3, 4), (6, 6)).certified


def test_intstab_tables_match_kunneth_prediction():
    # the module complex factors as (Koszul pair on Q1(sigma), rho2) tensor
    # (rho3, rho4 module Koszul) tensor (survivors, 0); the first factor has
    # homology polynomial on rho2^2 at ell = 2 and exterior(b*rho2^(l-1))
    # tensor polynomial(rho2^l) at odd ell, the second factor is trivial
    box = (6, 6)
    for ell in (2, 3, 5):
        preset = "intstab-f2" if ell == 2 else "intstab-fl"
        odd_ell = None if ell == 2 else ell
        table = homology_table(build_paper_complex(preset, box, ell=odd_ell), box)
        base = enumerated_paper_complex(preset, box, ell=odd_ell).base
        q1 = "xi(sigma)" if ell == 2 else "[sigma,sigma]"
        killed = {q1, "rho2", "rho3"}
        survivors = [x for x in base.letters if x.name not in killed]
        if ell == 2:
            survivors.append(Letter(4, 4, 4, "rho2sq"))
        else:
            survivors.append(Letter(2 * ell, 2 * ell - 1, 2 * ell - 1, "bclass"))
            survivors.append(Letter(2 * ell, 2 * ell, 2 * ell, "rho2pow"))
        free = CDGA(base.field, survivors, {})
        for g in range(box[0] + 1):
            for d in range(box[1] + 1):
                assert table.dim(g, d) == len(free.monomial_basis((g, d))), (ell, g, d)


def test_a_algebra_h21_and_hg1():
    expected_h21 = {2: 1, 3: 0, 5: 1}
    for ell, want in expected_h21.items():
        cx = build_paper_complex("A-algebra-fl", (6, 6), ell=ell)
        t = homology_table(cx, (6, 1))
        assert t.dim(2, 1) == want, ell
        for g in range(3, 7):
            assert t.dim(g, 1) == 0, (ell, g)
        assert t.dim(1, 1) == 1


def test_field_independence_of_characteristic_zero_statement():
    # vanishA certification over Q agrees with F_ell for ell not in {2, 3}
    box = (6, 6)
    over_q = verify_vanishing(build_paper_complex("vanishA", box), Fraction(3, 4), box)
    gens_diff = {"rho": "[sigma,sigma]"}
    letters = [
        Letter(x.g, x.d, x.r, x.name) for x in enumerated_paper_complex("vanishA", box).letters
    ]
    for ell in (5, 7):
        cx = _cdga(GF(ell), letters, gens_diff)
        rep = verify_vanishing(cx, Fraction(3, 4), box)
        assert rep.certified == over_q.certified
        assert rep.table.dims == over_q.table.dims


def test_dgmodule_rho4_koszul():
    # (1, rho4) over Lambda(rho3) with d(rho4) = rho3 is acyclic above (0,0)
    base = _cdga(GF(3), [Letter(3, 2, 2, "rho3")])
    mod = DGModule(
        base,
        [("1", 0, 0, 0), ("rho4", 3, 3, 3)],
        {"rho4": [({base.mono_of({"rho3": 1}): 1}, "1")]},
    )
    t = homology_table(mod, (9, 9))
    assert t.sorted_items() == [((0, 0), 1)]


@pytest.mark.parametrize(
    "module_gens",
    [[("1", 0, 0, 0), ("e", 0, 1, 0)], [("1", 0, 0, 0), ("e", 0, 0, 0)], [("e", 1, 1, 0)]],
)
def test_a_module_table_that_is_not_unital_is_a_domain_error(module_gens):
    """The truncated product multiplies in place and takes unital tables
    only: 1 at (0, 0) and nothing else at genus 0.  A module with another
    generator of genus 0, or with none at (0, 0), has no such table."""
    base = _cdga(QQ, [Letter(1, 0, 0, "x")])
    with pytest.raises(DomainError, match="must hold 1 at"):
        homology_table(DGModule(base, module_gens), (3, 3))


def _chain_module(fld, dz):
    """(1, e1, e2) over x(1,0), y(1,1), z(2,2) with d(z) = dz, d(e1) = x and
    d(e2) = y*e1 + z.  d^2(e2) = d(y) e1 + (-1)^d(y) y*x + d(z), and y is
    odd, so the module is a complex exactly when d(z) = y*x."""
    base = _cdga(fld, [Letter(1, 0, 0, "x"), Letter(1, 1, 0, "y"), Letter(2, 2, 0, "z")], {"z": dz})
    x, y, z = (base.mono_of({name: 1}) for name in "xyz")
    one = fld.one()
    mdiff = {"e1": [({x: one}, "1")], "e2": [({y: one}, "e1"), ({z: one}, "1")]}
    return DGModule(base, [("1", 0, 0, 0), ("e1", 1, 1, 0), ("e2", 2, 3, 0)], mdiff)


def _matrix_product_is_zero(fld, b, a):
    """Whether b*a = 0 for sparse matrices a and b."""
    product = {}
    for i, row in enumerate(b.rows):
        for k, v in row:
            for j, w in a.rows[k]:
                product[(i, j)] = fld.of(product.get((i, j), fld.zero()) + v * w)
    return all(c == 0 for c in product.values())


@pytest.mark.parametrize("fld", [QQ, GF(3)])
def test_dgmodule_d_squared_uses_the_koszul_sign(fld):
    mod = _chain_module(fld, "y*x")
    for g in range(6):
        for d in range(2, 6):
            dm = mod.differential_matrix
            assert _matrix_product_is_zero(fld, dm((g, d - 1)), dm((g, d)))
    with pytest.raises(InputError, match=r"delta\^2 != 0 on module generator e2"):
        _chain_module(fld, "-y*x")


def test_dgmodule_input_errors():
    base = _cdga(QQ, [Letter(1, 0, 0, "x"), Letter(1, 1, 0, "y")])
    x, y = base.mono_of({"x": 1}), base.mono_of({"y": 1})
    gens = [("1", 0, 0, 0), ("e", 1, 1, 0)]
    cases = [
        ([("1", 0, 0, 0), ("1", 1, 1, 0)], {}, "duplicate module generator names"),
        (gens, {"f": [({x: 1}, "1")]}, "module differential on unknown generator f"),
        (gens, {"e": [({x: 1}, "f")]}, "module differential hits unknown generator f"),
        (gens, {"e": [({y: 1}, "1")]}, "module differential of e not homogeneous"),
    ]
    for module_gens, mdiff, message in cases:
        with pytest.raises(InputError, match=message):
            DGModule(base, module_gens, mdiff)
    assert DGModule(base, gens, {"e": [({x: 1}, "1")]}).mdiff == {"e": [({x: 1}, "1")]}


def test_quotient_erases_divisible_terms():
    letters = [Letter(1, 0, 0, "sigma"), Letter(1, 1, 1, "tau"), Letter(2, 2, 2, "rho")]
    cx = _cdga(QQ, letters, {"rho": "10*sigma*tau"})
    q = cx.quotient(["sigma"])
    assert "sigma" not in q.index
    assert q.diff == {}


def test_homogeneity_and_d_squared_validation():
    letters = [Letter(1, 0, 0, "x"), Letter(1, 1, 1, "y")]
    with pytest.raises(InputError):
        _cdga(QQ, letters, {"y": "x*x"})  # bidegree (2,0) != (1,0)
    letters2 = [Letter(1, 1, 1, "u"), Letter(1, 2, 2, "v"), Letter(1, 3, 3, "w")]
    with pytest.raises(InputError):
        # d(w) = v, d(v) = u gives d(d(w)) = u != 0
        _cdga(QQ, letters2, {"w": "v", "v": "u"})


def test_parse_cdga_file_and_bracket_names():
    text = """
    # Koszul pair with a named bracket letter
    [s,s] 2 1
    rho   2 2
    d rho = [s,s]
    """
    cx = parse_cdga_file(text, QQ)
    t = homology_table(cx, (6, 6))
    assert t.sorted_items() == [((0, 0), 1)]
    with pytest.raises(InputError):
        parse_cdga_file("x 1\n", QQ)
    with pytest.raises(InputError):
        parse_cdga_file("x 1 1\nd y = x\n", QQ)


@pytest.mark.parametrize("second", ["0", "x", "2*x", ""])
def test_second_differential_line_for_a_letter_is_an_input_error(second):
    text = f"x 1 0\ny 1 1\nd y = x\nd y = {second}\n"
    with pytest.raises(InputError, match="second differential line for y"):
        parse_cdga_file(text, QQ)
    assert parse_cdga_file("x 1 0\ny 1 1\nd y = x\n", QQ).diff == {"y": {((0, 1),): 1}}


def test_set_differential_is_checked_and_keeps_the_old_one_on_error():
    cx = _cdga(QQ, [Letter(1, 0, 0, "x"), Letter(1, 1, 1, "y"), Letter(1, 2, 2, "z")], {"y": "x"})
    for bad in ({"w": {((0, 1),): 1}}, {"y": {((0, 2),): 1}}, {"z": {((1, 1),): 1}, "y": {((0, 1),): 1}}):
        with pytest.raises(InputError):
            cx.set_differential(bad)
        assert cx.diff == {"y": {((0, 1),): 1}}
    # dense exponent vectors are read, zero terms and empty polynomials dropped
    cx.set_differential({"y": {(1, 0, 0): 0}, "z": {}})
    assert cx.diff == {}


def test_negative_box_bounds_are_input_errors():
    """A box bound below 1 is an input error for a library caller of
    homology_table and verify_vanishing, as it is on the command line."""
    cx = parse_cdga_file("a 1 0\n", QQ)
    for box in ((-1, 3), (3, -1), (3, 0), (0, 3)):
        with pytest.raises(InputError, match="^box bounds must be >= 1$"):
            homology_table(cx, box)
        with pytest.raises(InputError, match="^box bounds must be >= 1$"):
            verify_vanishing(cx, Fraction(1), box)
    assert homology_table(cx, (3, 1)).dims == {(0, 0): 1, (1, 0): 1, (2, 0): 1, (3, 0): 1}


def test_unknown_preset_rejected():
    with pytest.raises(InputError):
        build_paper_complex("nonsense", (6, 6))
    with pytest.raises(InputError):
        build_paper_complex("intstab-fl", (6, 6))  # needs ell


@pytest.mark.parametrize("preset", _PRESETS)
def test_every_box_is_the_truncation_of_the_8_8_table(preset):
    """Any box of a named complex, also one that leaves out letters its
    differential names, has the 8,8 table restricted to the box: every
    letter has g >= 1 and d >= 0, so a box's letters carry their whole
    differential."""
    full = homology_table(build_paper_complex(preset, (8, 8)), (8, 8)).dims
    for box in itertools.product(range(1, 9), range(1, 9)):
        expected = {(g, d): n for (g, d), n in full.items() if g <= box[0] and d <= box[1]}
        assert homology_table(build_paper_complex(preset, box), box).dims == expected, box


@pytest.mark.parametrize("box", [(3, 3), (6, 6)])
def test_prime_in_the_name_or_given_as_ell(box):
    for preset in ("intstab-fl", "A-algebra-fl"):
        table = homology_table(build_paper_complex(f"{preset}(3)", box), box)
        assert table == homology_table(build_paper_complex(preset, box, ell=3), box)
        assert table == homology_table(build_paper_complex(f"{preset}(3)", box, ell=3), box)


@pytest.mark.parametrize(
    "preset, ell, message",
    [
        ("intstab-fl(3", None, "bad preset 'intstab-fl(3'; expected NAME or NAME(ELL)"),
        ("intstab-fl(3)x", None, "bad preset"),
        ("intstab-fl()", None, "bad prime in preset 'intstab-fl()'"),
        ("intstab-fl(-3)", None, "bad prime"),
        ("intstab-fl(5)", 3, "preset 'intstab-fl(5)' and ell 3 name different primes"),
        ("vanishB(3)", None, "preset vanishB takes no prime"),
        ("intstab-f2", 2, "preset intstab-f2 takes no prime"),
        ("A-algebra-fl", None, "preset A-algebra-fl needs a prime ell"),
        ("intstab-fl(4)", None, "not a prime: 4"),
        ("nonsense(3)", None, "unknown preset: nonsense"),
    ],
)
def test_preset_spellings_and_primes_are_checked_in_one_place(preset, ell, message):
    with pytest.raises(InputError) as err:
        build_paper_complex(preset, (3, 3), ell=ell)
    assert message in str(err.value)


# random token strings for the expression grammar: no zero denominator and
# no trailing whitespace, so every string reads the same before and after
# those two fixes
_POLY_TOKENS = ["+", "-", "*", "^", "^", "0", "1", "2", "3", "12", "1/2", "2/3", "4/3",
                "x", "y", "z'", "[u,v]", "e", "!"]
# recorded before the grammar moved to bigraded.parsing; re-recorded when a
# text with no term became an input error: the 300 strings that are empty or
# a lone sign went from [] to "error" over each field, and no other changed
_POLY_DIGEST = "c04bc15e8e74028940695e55ab291b12c413fd723b732a9a07b860080484f756"


def test_parse_poly_zero_denominator_and_trailing_space():
    cx = CDGA(QQ, [Letter(1, 0, 0, "x")])
    with pytest.raises(InputError, match="zero denominator"):
        parse_poly(cx, "1/0*x")
    with pytest.raises(InputError, match="zero denominator"):
        parse_cdga_file("a 1 0\nb 1 1\nd b = 1/0*a\n", QQ)
    assert parse_poly(cx, " 2*x^2 \t") == parse_poly(cx, "2*x^2") == {((0, 2),): 2}
    with pytest.raises(InputError, match="without a name"):
        parse_poly(cx, "2^3*x")


def test_parse_poly_numbers_longer_than_int_converts_are_input_errors():
    cx = CDGA(QQ, [Letter(1, 0, 0, "x")])
    long = "9" * 5000
    for text in (f"{long}*x", f"{long}/2*x", f"x^{long}"):
        with pytest.raises(InputError, match="number too long"):
            parse_poly(cx, text)
    assert parse_poly(cx, "9" * 4000 + "*x") == {((0, 1),): int("9" * 4000)}


def test_parse_poly_matches_recorded_digest():
    letters = [Letter(1, 0, 0, "x"), Letter(1, 1, 1, "y"), Letter(2, 1, 1, "z'"),
               Letter(1, 2, 2, "[u,v]")]
    rng = random.Random(10)
    corpus = []
    for _ in range(2000):
        parts = [rng.choice(_POLY_TOKENS) + rng.choice(["", "", " "])
                 for _ in range(rng.randint(0, 7))]
        corpus.append((rng.choice(["", " "]) + "".join(parts)).rstrip())
    lines = []
    for fld in (QQ, GF(2), GF(3)):
        cx = CDGA(fld, letters)
        for text in corpus:
            try:
                result = repr(list(parse_poly(cx, text).items()))
            except WorkbenchError:
                result = "error"
            lines.append(f"{fld.name}\t{text!r}\t{result}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _POLY_DIGEST
