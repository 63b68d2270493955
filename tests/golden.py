"""Hand-derived frozen expectations shared across test modules."""

# Canonical three-site basis: words in canonical order with their doubled
# labels (2J3, (2J^2, 2J^3)), worked out by stack reduction of each word.
THREE_SITE_CATALOGUE = {
    "RYY": (-1, (0, 1)),
    "RYR": (1, (0, 1)),
    "YRY": (-1, (2, 1)),
    "RRY": (1, (2, 1)),
    "YYY": (-3, (2, 3)),
    "YYR": (-1, (2, 3)),
    "YRR": (1, (2, 3)),
    "RRR": (3, (2, 3)),
}

THREE_SITE_ORDER = ["RYY", "RYR", "YRY", "RRY", "YYY", "YYR", "YRR", "RRR"]

TWO_SITE_ORDER = ["RY", "YY", "YR", "RR"]

# Three-site model structure: diagonal 2J3 values and the symmetric
# coefficient pairs (1-based) carried by each coupling.
THREE_SITE_DIAG = [-1, 1, -1, 1, -3, -1, 1, 3]
THREE_SITE_DELTA_PAIRS = [(1, 2), (3, 4), (5, 6), (6, 7), (7, 8)]
THREE_SITE_GAMMA_PAIRS = [(1, 4)]
THREE_SITE_EPS_PAIRS = [(1, 5), (1, 7), (2, 6), (2, 8), (3, 5), (3, 7), (4, 6), (4, 8)]

# Two-site model structure (hand application of the operator chains to the
# four states RY, YY, YR, RR).
TWO_SITE_DIAG = [0, -2, 0, 2]
TWO_SITE_DELTA_PAIRS = [(2, 3), (3, 4)]
TWO_SITE_EPS_PAIRS = [(1, 2), (1, 4)]

# Exact symbolic dump of the three-site model, one line per entry, sorted
# by (row, col, symbol); diagonal lines carry the 2J3 multiplier.
THREE_SITE_DUMP = """\
1 1 MU0 -1
1 2 DELTA 1
1 4 GAMMA 1
1 5 EPS 1
1 7 EPS 1
2 1 DELTA 1
2 2 MU0 1
2 6 EPS 1
2 8 EPS 1
3 3 MU0 -1
3 4 DELTA 1
3 5 EPS 1
3 7 EPS 1
4 1 GAMMA 1
4 3 DELTA 1
4 4 MU0 1
4 6 EPS 1
4 8 EPS 1
5 1 EPS 1
5 3 EPS 1
5 5 MU0 -3
5 6 DELTA 1
6 2 EPS 1
6 4 EPS 1
6 5 DELTA 1
6 6 MU0 -1
6 7 DELTA 1
7 1 EPS 1
7 3 EPS 1
7 6 DELTA 1
7 7 MU0 1
7 8 DELTA 1
8 2 EPS 1
8 4 EPS 1
8 7 DELTA 1
8 8 MU0 3"""

THREE_SITE_BASIS_LINES = """\
1 RYY J3=-1/2; J^2..J^N=0/2,1/2
2 RYR J3=1/2; J^2..J^N=0/2,1/2
3 YRY J3=-1/2; J^2..J^N=2/2,1/2
4 RRY J3=1/2; J^2..J^N=2/2,1/2
5 YYY J3=-3/2; J^2..J^N=2/2,3/2
6 YYR J3=-1/2; J^2..J^N=2/2,3/2
7 YRR J3=1/2; J^2..J^N=2/2,3/2
8 RRR J3=3/2; J^2..J^N=2/2,3/2"""


def pairs_matrix(dim, pairs):
    """Dense symmetric 0/1 matrix from 1-based coordinate pairs."""
    import numpy as np

    m = np.zeros((dim, dim), dtype=np.int64)
    for r, c in pairs:
        m[r - 1, c - 1] = 1
        m[c - 1, r - 1] = 1
    return m


def coupling_matrices(sym):
    """{coupling field: dense 0/1 int64 matrix of its pairs} for every
    coupling of the structure's families, in the order they first appear;
    both the stored half and its transposes."""
    import numpy as np

    matrices = {}
    for code, (_, field) in enumerate(sym.families):
        matrix = matrices.setdefault(field, np.zeros((sym.dim, sym.dim), dtype=np.int64))
        keep = sym.family == code
        matrix[sym.rows[keep], sym.cols[keep]] = 1
        matrix[sym.cols[keep], sym.rows[keep]] = 1
    return matrices


def family_matrices(sym):
    """{term family: dense 0/1 int64 matrix of its pairs} for every family
    that couples some pair; both the stored half and its transposes."""
    import numpy as np

    matrices = {}
    for code, (name, _) in enumerate(sym.families):
        keep = sym.family == code
        if keep.any():
            matrices[name] = np.zeros((sym.dim, sym.dim), dtype=np.int64)
            matrices[name][sym.rows[keep], sym.cols[keep]] = 1
            matrices[name][sym.cols[keep], sym.rows[keep]] = 1
    return matrices
