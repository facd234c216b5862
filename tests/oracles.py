"""Reference implementations and fixtures that only tests call."""

from bigraded.cdga import _add_into
from bigraded.posets import FinitePoset, order_chains


def rank_oracle(m) -> int:
    """The rank of an `exactla.Matrix` by dense column elimination."""
    f = m.field
    cols = [[f.zero()] * m.nrows for _ in range(m.ncols)]
    for i, row in enumerate(m.rows):
        for j, x in row:
            cols[j][i] = x
    used = []
    for col in cols:
        for lead, ucol in used:
            if col[lead]:
                c = col[lead] * f.inv(ucol[lead])
                col = [f.of(x - c * y) for x, y in zip(col, ucol)]
        lead = next((i for i, x in enumerate(col) if x), None)
        if lead is not None:
            used.append((lead, col))
    return len(used)


def poly_add(cx, p, q):
    """The sum of two polynomials of the CDGA ``cx``, as {monomial: coefficient}."""
    out = dict(p)
    for m, c in q.items():
        _add_into(cx.field, out, m, c)
    return out


def poly_scale(cx, p, c):
    return {m: s for m, v in p.items() if (s := cx.field.of(c * v))}


def poly_mul(cx, p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            sm = cx.mono_mul(m1, m2)
            if sm is not None:
                _add_into(cx.field, out, sm[1], -c1 * c2 if sm[0] < 0 else c1 * c2)
    return out


def chain_poset(length: int) -> FinitePoset:
    names = [f"c{i}" for i in range(length)]
    return FinitePoset(names, [(names[i], names[i + 1]) for i in range(length - 1)])


def antichain_poset(size: int) -> FinitePoset:
    return FinitePoset([f"a{i}" for i in range(size)], [])


def leq(p: FinitePoset, a, b) -> bool:
    return bool((p.below[p.idx[b]] >> p.idx[a]) & 1)


def euler_characteristic(p: FinitePoset) -> int:
    """Reduced Euler characteristic of the order complex from chain counts."""
    return sum((-1) ** k * len(level) for k, level in enumerate(order_chains(p))) - 1
