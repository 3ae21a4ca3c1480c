"""End-to-end stability experiments and verdict tables.

A stability run computes the homology grid H_i(B_k; Z[c^k]) for
i <= i_max, k <= k_max together with all stabilisation-induced maps,
evaluates the expected stability ranges when their hypothesis (a single central
charge, |c| = 1) holds, and reports empirical iso onsets.  The asserted
ranges are sufficient conditions only; earlier onset is reported, never
treated as failure.

Every map compares adjacent columns, so the grid is computed in one pass
over k in one process, holding the complexes of k and k+1 only.

Reports are deterministic: identical inputs produce identical report
dictionaries, and the TSV/JSON writers iterate in sorted order.
"""

from __future__ import annotations

from math import comb

from . import cost
from . import homology as hm
from . import resolution as rs
from .braid import orbits
from .groups import GroupError

# stability ranges: over Z isomorphisms from k >= 2i+4 and surjections from
# k >= 2i+2; over a field both bounds improve by two
ISO_OFFSET = {"Z": 4, "field": 2}
SURJ_OFFSET = {"Z": 2, "field": 0}


class StabilityReport:
    def __init__(self, group_name, class_elements, g_hat, coeff, i_max,
                 k_max, hypothesis, cells, maps, iso_onsets,
                 range_violations, asserted):
        self.group_name = group_name
        self.class_elements = class_elements
        self.g_hat = g_hat
        self.coeff = coeff
        self.i_max = i_max
        self.k_max = k_max
        self.hypothesis = hypothesis
        self.cells = cells  # (k, i) -> HomologyGroup
        self.maps = maps  # (k, i) -> InducedHomologyMap (map k -> k+1)
        # i -> least k with all later maps iso, or None
        self.iso_onsets = iso_onsets
        self.range_violations = range_violations
        # whether the range predicate was asserted (|c| = 1)
        self.asserted = asserted

    @property
    def assertion_passed(self):
        return not self.range_violations if self.asserted else None

    def to_json(self):
        return {
            "group": self.group_name,
            "class": list(self.class_elements),
            "stabiliser": self.g_hat,
            "coeff": self.coeff,
            "i_max": self.i_max,
            "k_max": self.k_max,
            "hypothesis": self.hypothesis,
            "cells": {
                f"{k},{i}": g.to_json() for (k, i), g in sorted(self.cells.items())
            },
            "maps": {
                f"{k},{i}": m.to_json() for (k, i), m in sorted(self.maps.items())
            },
            "iso_onsets": {str(i): v for i, v in sorted(self.iso_onsets.items())},
            "range_violations": self.range_violations,
            "asserted": self.asserted,
            "assertion_passed": self.assertion_passed,
        }


def cell_str(group, coeff):
    """Render a homology group for a TSV cell; field cells show the
    field and dimension rather than Z-flavored names."""
    if coeff == "Z":
        return str(group)
    if group.free_rank == 0:
        return "0"
    base = "Q" if coeff == "Q" else f"F{coeff.split(':')[1]}"
    return base if group.free_rank == 1 else f"{base}^{group.free_rank}"


def hypothesis_flags(classes):
    flags = {
        "size": len(classes),
        "is_central": classes.is_central(),
        "generates": classes.generates(),
        "is_inversion_closed": classes.is_inversion_closed(),
    }
    try:
        flags["is_non_splitting"] = classes.is_non_splitting()
    except GroupError:
        flags["is_non_splitting"] = None
    return flags


def _complex_for(classes, g_hat, k, i_max):
    """Specialised Salvetti complex for B_k at depth min(i_max+1, k-1)."""
    module = rs.HurwitzModule(classes, k, g_hat)
    if k == 1:
        return module, rs.point_complex(module)
    free = rs.salvetti_complex(k, min(i_max + 1, k - 1))
    return module, rs.specialize(free, module)


def stability_table(
    group,
    classes,
    g_hat,
    i_max,
    k_max,
    coeff=hm.Z,
):
    """Compute the (k, i) homology grid and stabilisation maps, and
    evaluate the stability ranges.

    The grid is one pass over k: complex k+1 is built, the cells of k
    and the maps k -> k+1 are read, and complex k is dropped before the
    next build, so at most two complexes (with their cached bases) are
    alive at a time.  When |c| = 1 the range predicate is asserted:
    over Z every map with k >= 2i+4 must be an isomorphism and
    k >= 2i+2 surjective; over a field the bounds improve to 2i+2 and
    2i.  Violations are collected, never silently dropped.
    """
    if g_hat not in classes:
        raise GroupError("stabiliser must lie in the class set")
    flags = hypothesis_flags(classes)
    # refuse, before any build, the first k at which columns 2..k sum past
    # the bound: C(k-1, j) |c|^k cells in each degree j <= depth, and
    # (k - r)(2^(r+1) - 2) lifts of k strands for each run length r <= depth
    ncells = nstrands = 0
    for k in range(2, k_max + 1):
        depth = min(i_max + 1, k - 1)
        ncells += sum(comb(k - 1, j) for j in range(depth + 1)) * len(classes) ** k
        nstrands += k * sum((k - r) * (2**(r + 1) - 2) for r in range(1, depth + 1))
        cost.refuse(cost.CELL_WEIGHT * ncells + nstrands // cost.STRANDS_PER_UNIT, (
            f"grid of {ncells} cells and {nstrands} key strands up to k={k}, "
            f"weighing {cost.CELL_WEIGHT} and 1/{cost.STRANDS_PER_UNIT} each, "
            "exceeds"))
    cells = {}
    maps = {}
    module, complex_ = _complex_for(classes, g_hat, 1, i_max)
    for k in range(1, k_max + 1):
        for i in range(i_max + 1):
            cells[(k, i)] = hm.homology(complex_, i, coeff)
        if k == k_max:
            break
        next_module, next_complex = _complex_for(classes, g_hat, k + 1, i_max)
        cm = rs.stabilisation_chain_map(complex_, next_complex, module, next_module)
        for i in range(i_max + 1):
            maps[(k, i)] = hm.induced_map(cm, i, coeff)
        # drop complex k: after the rebind the chain map holds its last
        # reference
        module, complex_ = next_module, next_complex
        del cm

    regime = "Z" if coeff.kind == "Z" else "field"
    asserted = len(classes) == 1
    violations = []
    if asserted:
        for (k, i), m in sorted(maps.items()):
            if k >= 2 * i + ISO_OFFSET[regime] and not m.is_iso:
                violations.append(
                    {"k": k, "i": i, "expected": "iso", "flags": m.to_json()}
                )
            if k >= 2 * i + SURJ_OFFSET[regime] and not m.is_surjective:
                violations.append(
                    {"k": k, "i": i, "expected": "surjective", "flags": m.to_json()}
                )
    onsets = {}
    for i in range(0, i_max + 1):
        onset = None
        for k in range(k_max - 1, 0, -1):
            if maps[(k, i)].is_iso:
                onset = k
            else:
                break
        onsets[i] = onset
    return StabilityReport(
        group_name=group.name,
        class_elements=list(classes.elements),
        g_hat=g_hat,
        coeff=str(coeff),
        i_max=i_max,
        k_max=k_max,
        hypothesis=flags,
        cells=cells,
        maps=maps,
        iso_onsets=onsets,
        range_violations=violations,
        asserted=asserted,
    )


class H0Table:
    def __init__(self, group_name, class_elements, g_hat, counts,
                 map_surjective, map_injective):
        self.group_name = group_name
        self.class_elements = class_elements
        self.g_hat = g_hat
        self.counts = counts  # k -> orbit count
        self.map_surjective = map_surjective  # k -> bool (orbit map k -> k+1)
        self.map_injective = map_injective

    def to_json(self):
        return {
            "group": self.group_name,
            "class": list(self.class_elements),
            "stabiliser": self.g_hat,
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "map_surjective": {
                str(k): v for k, v in sorted(self.map_surjective.items())
            },
            "map_injective": {
                str(k): v for k, v in sorted(self.map_injective.items())
            },
        }

    def to_tsv(self):
        lines = ["k\torbits\tmap_surjective\tmap_injective"]
        for k in sorted(self.counts):
            surj = self.map_surjective.get(k, "-")
            inj = self.map_injective.get(k, "-")
            lines.append(f"{k}\t{self.counts[k]}\t{surj}\t{inj}")
        return "\n".join(lines) + "\n"


def h0_table(group, classes, g_hat, k_max):
    """Orbit counts (H_0 is free on the orbit set) and the flags of the
    append-induced orbit maps."""
    parts = {}
    counts = {}
    for k in range(1, k_max + 1):
        parts[k] = orbits(classes, k)
        counts[k] = len(parts[k])
    # appending g_hat sends code r to r |c| + digit(g_hat), whose orbit
    # tgt's last level map gives for each representative r of src
    digit = classes.elements.index(g_hat)
    surj = {}
    inj = {}
    for k in range(1, k_max):
        src, tgt = parts[k], parts[k + 1]
        append = tgt.levels[-1][digit]
        images = {append[r] for r in src.reps}
        surj[k] = len(images) == len(tgt)
        inj[k] = len(images) == len(src)
    return H0Table(
        group_name=group.name,
        class_elements=list(classes.elements),
        g_hat=g_hat,
        counts=counts,
        map_surjective=surj,
        map_injective=inj,
    )


def universal_coefficient_check(z_report, f_report, p):
    """The rank identity dim_Fp H_i = rank H_i + #{p | torsion of H_i}
    + #{p | torsion of H_{i-1}}, asserted cellwise."""
    failures = []
    for (k, i), fp_group in f_report.cells.items():
        z_i = z_report.cells.get((k, i))
        if z_i is None:
            continue
        expected = z_i.free_rank + sum(1 for d in z_i.torsion if d % p == 0)
        z_prev = z_report.cells.get((k, i - 1))
        if z_prev is not None:
            expected += sum(1 for d in z_prev.torsion if d % p == 0)
        if fp_group.free_rank != expected:
            failures.append(
                {
                    "k": k,
                    "i": i,
                    "dim_Fp": fp_group.free_rank,
                    "expected": expected,
                }
            )
    return failures
