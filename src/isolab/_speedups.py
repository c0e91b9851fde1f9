"""The scalar product kernel of Z_q / p^M.

Elements of the unramified ring are coefficient tuples of length ``f`` on
the power basis 1, t, .., t^(f-1); ``red`` holds the reduction rows
t^(f+k) = sum_j red[k][j] t^j for k = 0 .. f-2, already reduced mod p^M.
zq_mul is the product of two scalars (FieldSpec.raw_mul).  Only padic
imports this module; it holds zq_mul and BACKEND, the names the benchmark
pins, and nothing else.
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
