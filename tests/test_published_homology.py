"""The homology of the braid groups with trivial coefficients, as
published, against the grids of a singleton class.

A singleton class makes Z[c^k] the trivial module Z, so the grid of
``homology --group cyclic:2 --class 'elems:[1]'`` is H_i(B_k).  Its
cells are compared with the closed forms, computed here as truncated
power series in x (counting strands) and t (counting degree):

* F_2 (Fuks 1970): sum over k, i of dim H_i(B_k; F_2) x^k t^i is
  prod_{j >= 0} 1 / (1 - x^(2^j) t^(2^j - 1));
* F_p for odd p (F. Cohen, LNM 533, 1976; Vainshtein 1978):
  (1 / (1 - x)) (1 + x^2 t)
  prod_{j >= 1} (1 + x^(2p^j) t^(2p^j - 1)) / (1 - x^(2p^j) t^(2p^j - 2));
* Q (Arnold 1970): (1 / (1 - x)) (1 + x^2 t), that is Q in degree 0, and
  in degree 1 from k = 2 on.

Over Z, universal coefficients turn the F_p and Q dimensions into each
cell's free rank and number of p-primary summands.  Every map of the
grid is split injective (the stable splitting of configuration spaces,
Cohen-May-Taylor 1978), so it is an isomorphism exactly where its source
and target cells are equal.
"""

import json

import pytest

from hurstab import cli

# ---------------------------------------------------------------------------
# truncated power series in x and t, as dicts {(k, i): coefficient}


def times(a, b, k_max, i_max):
    out = {}
    for (k1, i1), c1 in a.items():
        for (k2, i2), c2 in b.items():
            if k1 + k2 <= k_max and i1 + i2 <= i_max:
                out[k1 + k2, i1 + i2] = out.get((k1 + k2, i1 + i2), 0) + c1 * c2
    return out


def geometric(k, i, k_max, i_max):
    """1 / (1 - x^k t^i), for k >= 1."""
    return {(n * k, n * i): 1 for n in range(k_max // k + 1) if n * i <= i_max}


def product(factors, k_max, i_max):
    out = {(0, 0): 1}
    for factor in factors:
        out = times(out, factor, k_max, i_max)
    return out


def rational_series(k_max, i_max):
    return product([geometric(1, 0, k_max, i_max), {(0, 0): 1, (2, 1): 1}],
                   k_max, i_max)


def mod_p_series(p, k_max, i_max):
    if p == 2:
        return product([geometric(2**j, 2**j - 1, k_max, i_max)
                        for j in range(k_max.bit_length())], k_max, i_max)
    factors = [geometric(1, 0, k_max, i_max), {(0, 0): 1, (2, 1): 1}]
    q = 2 * p
    while q <= k_max:
        factors += [{(0, 0): 1, (q, q - 1): 1}, geometric(q, q - 2, k_max, i_max)]
        q *= p
    return product(factors, k_max, i_max)


# ---------------------------------------------------------------------------
# the grids


def grid(tmp_path, coeff, i_max, k_max):
    out = tmp_path / "grid.json"
    assert cli.run(["homology", "--group", "cyclic:2", "--class", "elems:[1]",
                    "--imax", str(i_max), "--kmax", str(k_max),
                    "--coeff", coeff, "--format", "json",
                    "--out", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text())["report"]
    cells = {tuple(map(int, key.split(","))): cell
             for key, cell in report["cells"].items()}
    maps = {tuple(map(int, key.split(","))): flags
            for key, flags in report["maps"].items()}
    return cells, maps


def integral_cells(k_max, i_max):
    """Each cell of H_i(B_k; Z) from universal coefficients: dim_Fp H_i
    = rank H_i + #{p-primary summands of H_i and of H_(i-1)}, so the
    summands of H_i are counted degree by degree.  The p-torsion has
    exponent p (F. Cohen, LNM 533), and a prime p >= 5 first shows in
    F_p in degree 2p - 2 > 6, so for i <= 6 only 2 and 3 occur; p = 5 is
    counted too, and must give none."""
    rational = rational_series(k_max, i_max)
    mod_p = {p: mod_p_series(p, k_max, i_max) for p in (2, 3, 5)}
    cells = {}
    for k in range(1, k_max + 1):
        below = dict.fromkeys(mod_p, 0)
        for i in range(i_max + 1):
            free = rational.get((k, i), 0)
            counts = {p: series.get((k, i), 0) - free - below[p]
                      for p, series in mod_p.items()}
            assert min(counts.values()) >= 0 and counts[5] == 0
            # invariant factors d_1 | d_2 | ...: d_j is the product of the
            # primes with at least n - j summands, n the most of any prime
            n = max(counts.values())
            torsion = []
            for j in range(n):
                d = 1
                for p, c in counts.items():
                    if c >= n - j:
                        d *= p
                torsion.append(d)
            cells[k, i] = {"free": free, "torsion": torsion}
            below = counts
    return cells


@pytest.mark.parametrize("coeff, i_max, k_max", [
    ("Fp:2", 5, 14), ("Fp:3", 6, 16), ("Z", 6, 16)])
def test_singleton_grid_is_the_published_homology(tmp_path, coeff, i_max,
                                                  k_max):
    cells, maps = grid(tmp_path, coeff, i_max, k_max)
    if coeff == "Z":
        expected = integral_cells(k_max, i_max)
        assert any(cell["torsion"] for cell in expected.values())
    else:
        series = mod_p_series(int(coeff.split(":")[1]), k_max, i_max)
        expected = {(k, i): {"free": series.get((k, i), 0), "torsion": []}
                    for k in range(1, k_max + 1) for i in range(i_max + 1)}
    assert cells == expected
    assert set(maps) == {(k, i) for k in range(1, k_max)
                         for i in range(i_max + 1)}
    for (k, i), flags in maps.items():
        iso = cells[k, i] == cells[k + 1, i]
        assert flags == {"inj": True, "split": True, "surj": iso, "iso": iso}, \
            (k, i)
