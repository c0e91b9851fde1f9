"""Kernels for coefficient-vector arithmetic in Z_q / p^M.

Elements of the unramified ring are coefficient tuples of length ``f`` on
the power basis 1, t, .., t^(f-1); ``red`` holds the reduction rows
t^(f+k) = sum_j red[k][j] t^j for k = 0 .. f-2, already reduced mod p^M.
zq_mul is the product of two scalars (FieldSpec.raw_mul); zq_mat_mul is
the one matrix product, behind linalg.mat_mul and linalg.charpoly.
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
    return tuple(v % pM for v in out)


def zq_mat_mul(A, Bcols, red, f, pM):
    """A * B on coefficient tuples in [0, pM), B given by its columns.

    Each output entry is one convolution summed over the inner index and
    reduced once mod (g(t), pM).  The convolution is a single integer sum
    of products by Kronecker substitution: a tuple c becomes the integer
    sum c_i 2^(K i), with K wide enough that no coefficient of the summed
    product carries into the next.
    """
    if f == 1:
        # plain integer dot products, measurably faster than the packed
        # path below on the f = 1 `lie` benchmark workload
        cols = [[t[0] for t in col] for col in Bcols]
        return [[(sum(map(mul, r, col)) % pM,) for col in cols]
                for r in ([t[0] for t in row] for row in A)]
    k = len(Bcols[0]) if Bcols else 0
    K = 2 * (pM - 1).bit_length() + (k * f).bit_length()
    shifts = [K * i for i in range(f)]
    mask = (1 << K) - 1
    cols = [[sum(map(lshift, t, shifts)) for t in col] for col in Bcols]
    out = []
    for row in A:
        r = [sum(map(lshift, t, shifts)) for t in row]
        orow = []
        for col in cols:
            acc = sum(map(mul, r, col))
            conv = [(acc >> (K * i)) & mask for i in range(2 * f - 1)]
            res = conv[:f]
            for i in range(f, 2 * f - 1):
                c = conv[i]
                if c:
                    rrow = red[i - f]
                    for j in range(f):
                        res[j] += c * rrow[j]
            orow.append(tuple(v % pM for v in res))
        out.append(orow)
    return out

