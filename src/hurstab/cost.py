"""The one resource bound, its refusal, and the weights of what the
guards count; a unit of the bound stands for about 1.1 us of work."""

BOUND = 10_000_000


class ResourceRefusal(RuntimeError):
    """An input's work exceeds BOUND (exit 3 in the CLI)."""


def refuse(count, what):
    """ResourceRefusal past BOUND; ``what`` names ``count``, verb last."""
    if count > BOUND:
        raise ResourceRefusal(f"{what} the bound {BOUND}")


# what a cell of a specialised complex weighs against the one resource
# bound: a grid spends about 18 us and 1.3 KiB per cell of its largest
# complex (sym:3 transpositions, i1/k9 and i1/k10 over Z, whole process),
# against about 1.1 us of work for a unit of the bound.  So the largest
# grid accepted has 625 000 cells, about 11 s and 800 MiB; i1/k8
# (190 269 cells, about 4 s) is accepted and i1/k9 (728 271 cells, 13 s
# and 900 MiB) is refused.
CELL_WEIGHT = 16

# how many key strands weigh a unit of the bound: a grid's Salvetti
# builds lift permutation keys of k strands, and on a singleton class a
# strand took 0.047-0.066 units (cyclic:2 elems:[1], imax 0, kmax 500
# to 2000, in process), so no grid is accepted past kmax 563.
STRANDS_PER_UNIT = 16

# what a column, or a relation checked, of a Kunneth system weighs
# against the one resource bound: building, checking and reducing the
# system took about 8-10 us and 240-380 B a count (HZ = [1, 1] at i = 1
# up to k = 120, i = 6 up to k = 20, HZ = [1, 50] at i = 3 and k = 4;
# whole processes), and 3-4 us on systems of rank 0 or 1, against about
# 1.1 us of work for a unit of the bound.  So the largest system
# accepted counts 625 000, about 6 s and 240 MiB.
COLUMN_WEIGHT = 16

# what a relation checked on a Hurwitz system weighs against the one
# resource bound, beside its columns, which weigh 1: the braid,
# commuting and inverse relations of F(k) are about comb(k, 2) checks,
# and on a singleton class, whose columns cost almost nothing, building
# and checking the system took about 1.9 us a check (kmax 200 and 300,
# whole processes), against about 1.1 us of work for a unit of the
# bound.  So a singleton class is accepted up to kmax 309, about 10 s.
RELATION_WEIGHT = 2

# what a table entry weighs against the one resource bound: a table is
# only a command's set-up, before the work it counts against the same
# bound, so it may take a tenth of it.  An entry costs about 0.2 us and
# 8 B to build and check (cyclic:1000 and dihedral:500; about 0.45 us
# in sym:6, which checks more generators), under the 1.1 us of work of a
# unit of the bound, so 1000 rows is the largest table: cyclic:1000 and
# dihedral:500 each build in about 0.3 s and 27 MiB as whole processes.
ENTRY_WEIGHT = 10

# what ``--samples`` weighs per sample against the bound: it is still
# accepted and reported, and refused past the bound as when each sample
# was drawn (about 9 us, against about 1.1 us for a unit of the bound)
SAMPLE_WEIGHT = 8
