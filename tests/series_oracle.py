"""Independent oracles for the tests: slow, obviously correct recomputations
of what the package computes fast."""


def betti_generating_function(letters, box: tuple[int, int], all_polynomial: bool):
    """Coefficient table of prod 1/(1 - q^g t^d) (polynomial letters) times
    prod (1 + q^g t^d) (exterior letters), truncated to the box.

    Independent of `free_series`: multiplies one explicit truncated power
    series per letter, each a geometric series or a binomial.
    """
    g_max, d_max = box
    series = {(0, 0): 1}
    for x in letters:
        factor = {(0, 0): 1}
        if all_polynomial or x.d % 2 == 0:
            e = 1
            while e * x.g <= g_max and e * x.d <= d_max:
                factor[(e * x.g, e * x.d)] = 1
                e += 1
        else:
            if x.g <= g_max and x.d <= d_max:
                factor[(x.g, x.d)] = 1
        series = series_mul(series, factor, box)
    series.pop((0, 0), None)
    return {k: v for k, v in series.items() if v}


def series_mul(a, b, box: tuple[int, int]):
    """The product of two tables of coefficients, truncated to the box."""
    g_max, d_max = box
    out = {}
    for (g1, d1), c1 in a.items():
        for (g2, d2), c2 in b.items():
            g, d = g1 + g2, d1 + d2
            if g <= g_max and d <= d_max:
                out[(g, d)] = out.get((g, d), 0) + c1 * c2
    return out


def counted_free_series(cells, box: tuple[int, int], all_polynomial: bool):
    """The free series of ``cells[(g, d)]`` letters at each (g, d), g >= 1,
    truncated to the box, unit included.

    Independent of `free_series`' binomials: a cell's letters are multiplied
    in one at a time, as series in x = q^g t^d, each polynomial letter by
    1/(1 - x), a running sum, and each exterior one by 1 + x."""
    g_max, d_max = box
    series = {(0, 0): 1}
    for (g, d), n in cells.items():
        top = min(g_max // g, d_max // d if d else g_max)
        coeffs = [1] + [0] * top
        for _ in range(n):
            if all_polynomial or d % 2 == 0:
                for k in range(1, top + 1):
                    coeffs[k] += coeffs[k - 1]
            else:
                for k in range(top, 0, -1):
                    coeffs[k] += coeffs[k - 1]
        series = series_mul(series, {(k * g, k * d): c for k, c in enumerate(coeffs)}, box)
    return series
