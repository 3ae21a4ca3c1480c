import json

import pytest

from hurstab import cli, cost
from hurstab import experiments as xp
from hurstab import homology as hm
from hurstab.groups import FiniteGroup, conjugacy_closure

S3 = FiniteGroup.symmetric(3)
TRANSPOSITIONS = conjugacy_closure({S3.element_names.index("(1 2)")}, S3)
Z2 = FiniteGroup.cyclic(2)
CENTRAL = conjugacy_closure({1}, Z2)


@pytest.fixture(scope="module")
def z2_grid():
    return xp.stability_table(Z2, CENTRAL, 1, i_max=2, k_max=7, coeff=hm.Z)


def test_hypothesis_flags(z2_grid):
    assert z2_grid.hypothesis == {
        "size": 1,
        "is_central": True,
        "generates": True,
        "is_inversion_closed": True,
        "is_non_splitting": True,
    }


def test_classical_braid_homology_values(z2_grid):
    cells = z2_grid.cells
    for k in range(1, 8):
        assert cells[(k, 0)] == hm.HomologyGroup(1)
        assert cells[(k, 1)] == (
            hm.HomologyGroup(1) if k >= 2 else hm.HomologyGroup(0)
        )
        expected_h2 = hm.HomologyGroup(0, (2,)) if k >= 4 else hm.HomologyGroup(0)
        assert cells[(k, 2)] == expected_h2


def test_stability_ranges_asserted(z2_grid):
    assert z2_grid.asserted
    assert z2_grid.assertion_passed
    assert z2_grid.range_violations == []


def test_onsets_reported(z2_grid):
    assert z2_grid.iso_onsets[0] == 1
    assert z2_grid.iso_onsets[1] == 2
    assert z2_grid.iso_onsets[2] == 4


def test_exploratory_run_not_asserted():
    rep = xp.stability_table(S3, TRANSPOSITIONS, TRANSPOSITIONS.elements[0],
                             i_max=1, k_max=4, coeff=hm.Z)
    assert not rep.asserted
    assert rep.assertion_passed is None
    # H0 ranks are the orbit counts
    assert rep.cells[(1, 0)].free_rank == 3
    assert rep.cells[(2, 0)].free_rank == 5
    assert rep.cells[(3, 0)].free_rank == 6
    assert rep.cells[(4, 0)].free_rank == 6


def test_report_determinism(z2_grid):
    again = xp.stability_table(Z2, CENTRAL, 1, i_max=2, k_max=7, coeff=hm.Z)
    a = json.dumps(z2_grid.to_json(), sort_keys=True)
    b = json.dumps(again.to_json(), sort_keys=True)
    assert a == b


def test_workers_accepts_only_one(tmp_path):
    grid = ["--group", "cyclic:2", "--class", "elems:[1]",
            "--imax", "1", "--kmax", "2"]
    for argv in (["homology"] + grid, ["stability", "--no-cache"] + grid,
                 ["orbits", "--group", "cyclic:2", "--class", "elems:[1]",
                  "--k", "1..2"]):
        for workers in ("0", "-1", "2"):
            assert cli.run(argv + ["--workers", workers]) == cli.EXIT_USAGE, \
                (argv, workers)
        assert cli.run(argv + ["--workers", "1", "--out",
                               str(tmp_path / "out")]) == cli.EXIT_OK, argv


def test_field_grids_and_universal_coefficients(z2_grid):
    for p in (2, 3):
        fp = xp.stability_table(Z2, CENTRAL, 1, i_max=2, k_max=7,
                                coeff=hm.Coeff("Fp", p))
        assert fp.assertion_passed
        assert xp.universal_coefficient_check(z2_grid, fp, p) == []
    q = xp.stability_table(Z2, CENTRAL, 1, i_max=2, k_max=7, coeff=hm.Q)
    assert q.assertion_passed
    for (k, i), cell in q.cells.items():
        assert cell.free_rank == z2_grid.cells[(k, i)].free_rank
        assert not cell.torsion


def test_h0_table_examples():
    table = xp.h0_table(S3, TRANSPOSITIONS, TRANSPOSITIONS.elements[0], 4)
    assert table.counts == {1: 3, 2: 5, 3: 6, 4: 6}
    # the constant orbits (x,..,x) for x != g_hat never contain a tuple
    # ending in g_hat, so the append map cannot be surjective here
    assert not table.map_surjective[3]
    singleton = xp.h0_table(Z2, CENTRAL, 1, 5)
    assert all(v == 1 for v in singleton.counts.values())
    assert all(singleton.map_surjective.values())
    assert all(singleton.map_injective.values())


def test_h0_consistency_with_homology_grid():
    rep = xp.stability_table(S3, TRANSPOSITIONS, TRANSPOSITIONS.elements[0],
                             i_max=0, k_max=4, coeff=hm.Z)
    table = xp.h0_table(S3, TRANSPOSITIONS, TRANSPOSITIONS.elements[0], 4)
    for k in range(1, 5):
        assert rep.cells[(k, 0)].free_rank == table.counts[k]
    # H0 map flags agree with the orbit-map flags
    for k in range(1, 4):
        assert rep.maps[(k, 0)].is_surjective == table.map_surjective[k]
        assert rep.maps[(k, 0)].is_injective == table.map_injective[k]


def test_resource_refusal(monkeypatch):
    # i1/k3: columns 2 and 3 hold (1 + 1) 3^2 + (1 + 2 + 1) 3^3 = 126
    # cells, each weighing CELL_WEIGHT (16), and their Salvetti builds
    # lift 2 keys of 2 strands and 4 + 6 of 3, 34 strands at 1/16 each
    g_hat = TRANSPOSITIONS.elements[0]
    count = cost.CELL_WEIGHT * 126 + 34 // cost.STRANDS_PER_UNIT
    monkeypatch.setattr(cost, "BOUND", count)
    xp.stability_table(S3, TRANSPOSITIONS, g_hat, i_max=1, k_max=3, coeff=hm.Z)
    monkeypatch.setattr(cost, "BOUND", count - 1)
    with pytest.raises(cost.ResourceRefusal,
                       match="grid of 126 cells and 34 key strands up to k=3, "
                             "weighing 16 and 1/16 each, exceeds the bound 2017"):
        xp.stability_table(S3, TRANSPOSITIONS, g_hat, i_max=1, k_max=3,
                           coeff=hm.Z)
    # h0_table reaches the bound through orbits: 4 * 3^4 at k = 4
    monkeypatch.setattr(cost, "BOUND", 324)
    assert xp.h0_table(S3, TRANSPOSITIONS, g_hat, 4).counts[4] == 6
    monkeypatch.setattr(cost, "BOUND", 323)
    with pytest.raises(cost.ResourceRefusal):
        xp.h0_table(S3, TRANSPOSITIONS, g_hat, 4)


class Built(Exception):
    pass


def no_complex(*args):
    raise Built


def test_refusal_comes_before_any_complex(monkeypatch):
    monkeypatch.setattr(xp.rs, "salvetti_complex", no_complex)
    # columns 2..9 hold 981 684 cells, (1 + 8 + 28) 3^9 of them at k = 9,
    # weighing CELL_WEIGHT each, and 1656 key strands; at that bound the
    # grid passes the check and reaches its first Salvetti build
    count = cost.CELL_WEIGHT * 981_684 + 1656 // cost.STRANDS_PER_UNIT
    monkeypatch.setattr(cost, "BOUND", count)
    with pytest.raises(Built):
        xp.stability_table(S3, TRANSPOSITIONS, TRANSPOSITIONS.elements[0],
                           i_max=1, k_max=9, coeff=hm.Z)
    monkeypatch.setattr(cost, "BOUND", cost.CELL_WEIGHT * 500_000)
    with pytest.raises(cost.ResourceRefusal,
                       match="grid of 981684 cells and 1656 key strands up to "
                             "k=9, weighing 16 and 1/16 each, exceeds the "
                             "bound 8000000"):
        xp.stability_table(S3, TRANSPOSITIONS, TRANSPOSITIONS.elements[0],
                           i_max=1, k_max=9, coeff=hm.Z)


def test_grid_guard_weighs_cells(monkeypatch):
    # at the real bound, the largest grids of CI, the README and the
    # benchmark reach their first Salvetti build, while sym:3
    # transpositions i1/k9 (728 271 cells at k = 9, about 13 s and
    # 900 MiB) is refused before it
    monkeypatch.setattr(xp.rs, "salvetti_complex", no_complex)
    S4 = FiniteGroup.symmetric(4)
    T4 = conjugacy_closure({S4.element_names.index("(1 2)")}, S4)
    Z3 = FiniteGroup.cyclic(3)
    for group, classes, i_max, k_max in (
            (S3, TRANSPOSITIONS, 1, 8), (S3, TRANSPOSITIONS, 2, 6),
            (S4, T4, 1, 5), (Z2, CENTRAL, 2, 18),
            (Z3, conjugacy_closure({1, 2}, Z3), 2, 9)):
        with pytest.raises(Built):
            xp.stability_table(group, classes, classes.elements[0], i_max,
                               k_max, coeff=hm.Z)
    with pytest.raises(cost.ResourceRefusal,
                       match="grid of 981684 cells and 1656 key strands up to "
                             "k=9, weighing 16 and 1/16 each, exceeds the "
                             "bound 10000000"):
        xp.stability_table(S3, TRANSPOSITIONS, TRANSPOSITIONS.elements[0],
                           i_max=1, k_max=9, coeff=hm.Z)


@pytest.mark.parametrize("i_max, k_max", [(0, 563), (1, 152), (2, 62), (3, 38)])
def test_singleton_grid_limits(monkeypatch, i_max, k_max):
    # at the real bound, the largest singleton grid at each i_max reaches
    # its first Salvetti build, and one column more is refused: cells
    # cost a singleton class almost nothing, so its key strands decide
    monkeypatch.setattr(xp.rs, "salvetti_complex", no_complex)
    with pytest.raises(Built):
        xp.stability_table(Z2, CENTRAL, 1, i_max, k_max, coeff=hm.Z)
    with pytest.raises(cost.ResourceRefusal,
                       match=f"up to k={k_max + 1}, weighing 16 and 1/16 each"):
        xp.stability_table(Z2, CENTRAL, 1, i_max, k_max + 1, coeff=hm.Z)


def test_tsv_rendering(z2_grid):
    tsv = cli._tsv_from_report_json(z2_grid.to_json())
    lines = tsv.strip().split("\n")
    assert lines[0].startswith("k\ti")
    assert len(lines) == 1 + 7 * 3
    table = xp.h0_table(S3, TRANSPOSITIONS, TRANSPOSITIONS.elements[0], 3)
    assert "orbits" in table.to_tsv().splitlines()[0]
