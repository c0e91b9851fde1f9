"""Kernels for coefficient-vector arithmetic in Z_q / p^M.

Elements of the unramified ring are coefficient tuples of length ``f`` on
the power basis 1, t, .., t^(f-1); ``red`` holds the reduction rows
t^(f+k) = sum_j red[k][j] t^j for k = 0 .. f-2, already reduced mod p^M.
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
    return tuple(v % pM for v in out)


def zq_mat_vec(A, v, red, f, pM):
    """Matrix * column-vector, coefficient-tuple entries."""
    zero = (0,) * f
    out = []
    for i in range(len(A)):
        Ai = A[i]
        acc = [0] * f
        for s in range(len(v)):
            x = Ai[s]
            if x == zero or v[s] == zero:
                continue
            prod = zq_mul(x, v[s], red, f, pM)
            for c in range(f):
                acc[c] += prod[c]
        out.append(tuple(t % pM for t in acc))
    return out


def zq_vec_dot(u, v, red, f, pM):
    zero = (0,) * f
    acc = [0] * f
    for s in range(len(u)):
        if u[s] == zero or v[s] == zero:
            continue
        prod = zq_mul(u[s], v[s], red, f, pM)
        for c in range(f):
            acc[c] += prod[c]
    return tuple(t % pM for t in acc)
