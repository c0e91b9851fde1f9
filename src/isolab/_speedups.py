"""Kernels for coefficient-vector arithmetic in Z_q / p^M.

Elements of the unramified ring are coefficient tuples of length ``f`` on
the power basis 1, t, .., t^(f-1); ``red`` holds the reduction rows
t^(f+k) = sum_j red[k][j] t^j for k = 0 .. f-2, already reduced mod p^M.
zq_mul is the product of two scalars (FieldSpec.raw_mul); zq_mat_mul is
the one matrix product, behind linalg.mat_mul, and zq_kronecker the
integer packing it shares with linalg.charpoly.
"""

from operator import lshift, mul

BACKEND = "python"


def zq_mul(a, b, red, f, pM):
    """Product of two coefficient tuples, reduced mod (g(t), p^M)."""
    if f == 1:
        return ((a[0] * b[0]) % pM,)
    # schoolbook convolution, degree <= 2f-2
    conv = [0] * (2 * f - 1)
    for i in range(f):
        ai = a[i]
        if ai:
            for j in range(f):
                conv[i + j] += ai * b[j]
    out = conv[:f]
    for k in range(2 * f - 2, f - 1, -1):
        c = conv[k]
        if c:
            row = red[k - f]
            for j in range(f):
                out[j] += c * row[j]
    return tuple([v % pM for v in out])


def zq_kronecker(red, f, pM, k):
    """(pack, fold) for sums of at most k products in Z_q / p^M, f > 1.

    pack maps a coefficient tuple in [0, pM) to one integer by Kronecker
    substitution, sum c_i 2^(K i), with K = 2 bits(pM - 1) + bits(k f)
    wide enough that no slot of a sum of k packed products carries into
    the next.  fold reads such a sum back as the coefficient tuple of the
    sum reduced mod (g(t), pM); on one packed value it is its tuple.
    """
    K = 2 * (pM - 1).bit_length() + (k * f).bit_length()
    shifts = [K * i for i in range(f)]
    wide = [K * i for i in range(2 * f - 1)]
    mask = (1 << K) - 1
    high = list(zip(range(f, 2 * f - 1), red))

    def pack(t):
        return sum(map(lshift, t, shifts))

    def fold(acc):
        conv = [(acc >> s) & mask for s in wide]
        res = conv[:f]
        for i, rrow in high:
            c = conv[i]
            if c:
                for j in range(f):
                    res[j] += c * rrow[j]
        return tuple([v % pM for v in res])

    return pack, fold


def zq_mat_mul(A, Bcols, red, f, pM):
    """A * B on coefficient tuples in [0, pM), B given by its columns.

    Each output entry is one convolution summed over the inner index and
    reduced once mod (g(t), pM): a single integer sum of products of the
    zq_kronecker packed entries.
    """
    if f == 1:
        # plain integer dot products, measurably faster than the packed
        # path below on the f = 1 `lie` benchmark workload
        cols = [[t[0] for t in col] for col in Bcols]
        return [[(sum(map(mul, r, col)) % pM,) for col in cols]
                for r in ([t[0] for t in row] for row in A)]
    pack, fold = zq_kronecker(red, f, pM, len(Bcols[0]) if Bcols else 0)
    cols = [list(map(pack, col)) for col in Bcols]
    return [[fold(sum(map(mul, r, col))) for col in cols]
            for r in (list(map(pack, row)) for row in A)]
