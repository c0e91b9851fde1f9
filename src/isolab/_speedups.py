"""Kernels for coefficient-vector arithmetic in Z_q / p^M.

Elements of the unramified ring are coefficient tuples of length ``f`` on
the power basis 1, t, .., t^(f-1); ``red`` holds the reduction rows
t^(f+k) = sum_j red[k][j] t^j for k = 0 .. f-2, already reduced mod p^M.
zq_mul is the product of two scalars (FieldSpec.raw_mul); zq_kronecker
sizes and reads back the integer packing that linalg.mat_mul and
linalg.charpoly share.
"""

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
    """(shifts, fold, reduce) for sums of k products in Z_q / p^M, f > 1.

    A coefficient tuple c in [0, pM) packs to one integer by Kronecker
    substitution, sum c_i 2^shifts[i], with slot width
    K = 2 bits(pM - 1) + bits(k f) wide enough that no slot of a sum of k
    packed products carries into the next.  fold reads such a sum back as
    the coefficient list of the sum reduced mod g(t), each coefficient
    congruent mod pM to, but not reduced into, [0, pM); reduce gives the
    packing of the sum reduced mod (g(t), pM), in one step.
    """
    K = 2 * (pM - 1).bit_length() + (k * f).bit_length()
    shifts = [K * i for i in range(f)]
    mask = (1 << K) - 1
    high = [(K * i, rrow) for i, rrow in zip(range(f, 2 * f - 1), red)]

    # explicit loops: measurably faster than comprehensions at f <= 3
    def fold(acc):
        res = []
        for s in shifts:
            res.append((acc >> s) & mask)
        for s, rrow in high:
            c = (acc >> s) & mask
            if c:
                for j in range(f):
                    res[j] += c * rrow[j]
        return res

    def reduce(acc):
        return sum([c % pM << s for c, s in zip(fold(acc), shifts)])

    return shifts, fold, reduce
