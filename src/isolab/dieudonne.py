"""Lie algebras with a compatible semilinear Frobenius and optional lattice.

The objects here pair an isocrystal with structure constants for a Lie
bracket the Frobenius acts on by automorphisms, plus optionally a lattice
pinched between its Frobenius image and 1/p times itself and closed under
the bracket.  All validation is reported with witnesses instead of being
assumed.
"""

import copy
from fractions import Fraction

from .errors import (InsufficientPrecision, InvariantViolated, IsolabError,
                     MalformedInput, NonInvertible, NotNilpotent,
                     SlopeNotStrictlyNegative, SlopeOutOfRange,
                     SplitUnavailable)
from .isocrystal import Isocrystal, _slope_blocks, _slope_polygon, slope_split
from .linalg import (coords_in_column_span, kernel_basis, mat_from_rationals,
                     mat_identity, mat_inverse, mat_mul, mat_sigma, mat_vec,
                     row_echelon, saturate_columns)
from .padic import (PadicScalar, _integral, _rational, _require_scalars,
                    _sequence)


class DieudonneLie:
    """iso: the (module, Frobenius) pair; bracket: c[i][j][k]; lattice: columns.

    __init__ is the only code that sets an attribute, save the memo slots
    below, and no code writes through bracket[...]: the table of nonzero
    constants bracket_vec walks is built, and the bracket laws are
    checked, here once; both hold only while the constants never change.
    A new bracket is a new DieudonneLie.  An algebra that breaks a law is
    still built, for dla_validate to report; every operation that needs
    the laws raises MalformedInput.

    Four memo slots are filled after __init__, each by one function
    through _stored: _series by lower_central_series (the series and
    class), _split by algebra_slope_split (the slope blocks of iso),
    _min_lattice by minimal_slope_lattice (the lattice's minimal-slope
    part) and _lattice_report by lattice_report (the lattice half of
    dla_validate's report).  Each depends only on the constants, F and
    the lattice, which never change, so the first answer is every later
    one: the first call computes it and stores it, or stores the
    IsolabError computing it raised.  Every later call returns a new
    copy, which the caller may edit without changing a later answer, or
    raises a new error of the stored one's class, message and witness
    (a copy), with no traceback.  Any other exception is not stored.
    """

    __slots__ = ("iso", "bracket", "lattice", "_cells", "_laws", "_series",
                 "_split", "_min_lattice", "_lattice_report")

    def __init__(self, iso, bracket, lattice=None):
        n = iso.rank

        def square(rows):  # n sequences of length n, by padic._sequence
            return _sequence(rows) and len(rows) == n and all(
                _sequence(r) and len(r) == n for r in rows)

        if not (square(bracket) and all(map(square, bracket))):
            raise MalformedInput("structure constants must be n x n x n",
                                 witness={"rank": n})
        if lattice is not None and not square(lattice):
            raise MalformedInput("lattice needs n independent columns",
                                 witness={"rank": n})
        self.iso = iso
        self.bracket = bracket
        self.lattice = lattice
        # _cells[i]: the (j, ((k, c_ijk), ..)) with a nonzero c_ijk, j and
        # k ascending.  A constant that is zero to precision, O(p^b), is
        # left out with its bound b; a zero rule that keeps such bounds
        # changes only this filter.
        cells = []
        for row in bracket:
            out = []
            for j, cell in enumerate(row):
                consts = tuple((k, c) for k, c in enumerate(cell)
                               if not c.is_zero)
                if consts:
                    out.append((j, consts))
            cells.append(tuple(out))
        self._cells = tuple(cells)
        self._laws = _bracket_laws(self)
        self._series = None
        self._split = None
        self._min_lattice = None
        self._lattice_report = None

    @property
    def spec(self):
        return self.iso.spec

    @property
    def rank(self):
        return self.iso.rank

    def bracket_vec(self, x, y):
        """[x, y] = sum of x_i y_j c_ijk e_k for coordinate vectors of
        PadicScalar, over the nonzero c_ijk only; zero x_i and y_j are
        skipped.  Each sum runs in ascending i, j, k, as a dense loop
        over all n^3 constants would."""
        out = [PadicScalar.zero(self.spec)] * self.rank
        for xi, cells in zip(x, self._cells):
            if xi.unit is None:
                continue
            for j, consts in cells:
                yj = y[j]
                if yj.unit is None:
                    continue
                w = xi * yj
                for k, c in consts:
                    out[k] = out[k] + w * c
        return out

    # -- serialization -------------------------------------------------------

    def to_json(self):
        lat = None
        if self.lattice is not None:
            lat = [[self.lattice[j][i].to_json()
                    for j in range(len(self.lattice))]
                   for i in range(self.rank)]
        return {"iso": self.iso.to_json(),
                "bracket": [[[c.to_json() for c in cell] for cell in row]
                            for row in self.bracket],
                "lattice": lat}

    @staticmethod
    def from_json(obj):
        try:
            iso = Isocrystal.from_json(obj["iso"])
            spec = iso.spec
            bracket = [[[PadicScalar.from_json(spec, c) for c in cell]
                        for cell in row] for row in obj["bracket"]]
            lraw = obj.get("lattice")
            lattice = None
            if lraw is not None:
                # JSON carries the matrix row-major; columns generate
                lattice = [[PadicScalar.from_json(spec, lraw[i][j])
                            for i in range(len(lraw))]
                           for j in range(len(lraw[0]))]
        except (IndexError, KeyError, TypeError) as exc:
            raise MalformedInput("bad algebra object", witness=obj) from exc
        return DieudonneLie(iso, bracket, lattice)

    @staticmethod
    def from_rationals(spec, frob_rows, bracket_rows, lattice_cols=None):
        return DieudonneLie(
            Isocrystal.from_rationals(spec, frob_rows),
            [mat_from_rationals(spec, row) for row in bracket_rows],
            lattice_cols and mat_from_rationals(spec, lattice_cols))


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def _vec_is_zero(v):
    return all(c.is_zero for c in v)


def integral_columns(X):
    """For each coordinate column of a solve, whether it is integral."""
    return [all(c.is_zero or c.v >= 0 for c in col) for col in X]


def _bracket_laws(a):
    """dla_validate's report on the algebra without its lattice."""
    n = a.rank
    report = {"antisymmetry": True, "jacobi": True, "f_equivariance": True,
              "lattice_dieudonne": None, "lattice_bracket_closure": None,
              "witnesses": {}}
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                s = a.bracket[i][j][k] + a.bracket[j][i][k]
                if not s.is_zero:
                    report["antisymmetry"] = False
                    report["witnesses"].setdefault("antisymmetry", (i, j, k))
    basis = mat_identity(a.spec, n)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                t1 = a.bracket_vec(basis[i], a.bracket_vec(basis[j], basis[k]))
                t2 = a.bracket_vec(basis[j], a.bracket_vec(basis[k], basis[i]))
                t3 = a.bracket_vec(basis[k], a.bracket_vec(basis[i], basis[j]))
                s = [x + y + z for x, y, z in zip(t1, t2, t3)]
                if not _vec_is_zero(s):
                    report["jacobi"] = False
                    report["witnesses"].setdefault("jacobi", (i, j, k))
    F = a.iso.F
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    images = a.iso.apply([a.bracket[i][j] for i, j in pairs])
    for (i, j), lhs in zip(pairs, images):
        rhs = a.bracket_vec([F[r][i] for r in range(n)],
                            [F[r][j] for r in range(n)])
        if not _vec_is_zero([x - y for x, y in zip(lhs, rhs)]):
            report["f_equivariance"] = False
            report["witnesses"].setdefault("f_equivariance", (i, j))
    return report


def dla_validate(a):
    """Check every structural law; flags plus witnesses, never silent.

    The bracket laws are the verdict __init__ stored; an algebra with a
    lattice adds lattice_report's flags and witnesses, after the laws'.
    Each call returns a new report, so a caller that edits it changes no
    later answer.
    """
    report = dict(a._laws, witnesses=dict(a._laws["witnesses"]))  # a copy
    if a.lattice is not None:
        lat = lattice_report(a)
        report["witnesses"].update(lat.pop("witnesses"))
        report.update(lat)
    return report


def lattice_report(a):
    """dla_validate's lattice half: {"lattice_dieudonne": ..,
    "lattice_bracket_closure": .., "witnesses": {..}}, the witnesses
    holding the first failure of each flag that is False, in that order.

    The lattice L is Dieudonne when L <= phi(L) <= (1/p) L: no entry of
    lattice_phi_matrix's B has valuation below -1 and none of B^-1 below
    0 (the witness names the first column that fails).  It is
    bracket-closed when lattice_bracket_closure finds every bracket
    integral (the witness is the first pair that is not).  An algebra
    with no lattice is MalformedInput.

    Stored in the _lattice_report slot; each witness is a tuple.
    """
    if a.lattice is None:
        raise MalformedInput("no lattice on this algebra")
    return _stored(a, "_lattice_report", _lattice_report,
                   lambda memo: {"lattice_dieudonne": memo[0],
                                 "lattice_bracket_closure": memo[1],
                                 "witnesses": dict(memo[2])})


def _lattice_report(a):
    """(dieudonne, closed, witnesses) for lattice_report."""
    n = a.rank
    witnesses = {}
    B, Binv = lattice_phi_matrix(a)
    wit = None
    for i in range(n):
        for j in range(n):
            e = B[i][j]
            if wit is None and not e.is_zero and e.v < -1:
                wit = ("phi_image_exceeds", j)
            e = Binv[i][j]
            if wit is None and not e.is_zero and e.v < 0:
                wit = ("lattice_not_inside_phi_image", j)
    if wit:
        witnesses["lattice_dieudonne"] = wit
    pairs, closed = lattice_bracket_closure(a)
    for pair, ok in zip(pairs, closed):
        if not ok:
            witnesses.setdefault("lattice_bracket_closure", pair)
    return wit is None, all(closed), witnesses


def lattice_bracket_closure(a):
    """(pairs, closed): the pairs i < j of lattice columns with a nonzero
    bracket, and whether each bracket lies in the lattice.  One solve for
    all: the square lattice basis takes every pivot, so each bracket gets
    the digits of its own solve."""
    pairs, brackets = [], []
    for i in range(a.rank):
        for j in range(i + 1, a.rank):
            v = a.bracket_vec(a.lattice[i], a.lattice[j])
            if not _vec_is_zero(v):
                pairs.append((i, j))
                brackets.append(v)
    return pairs, integral_columns(lattice_coords(a, brackets))


def lattice_coords(a, targets):
    """coords_in_column_span(a.lattice, targets).  A lattice that lost
    rank at working precision leaves every comparison with it
    indeterminate: InsufficientPrecision, with the solve's witness.  Rank
    is read from the lattice alone, so an empty list of targets checks it
    and solves for nothing."""
    try:
        return coords_in_column_span(a.lattice, targets)
    except NonInvertible as exc:
        raise InsufficientPrecision("lattice comparison indeterminate",
                                    witness=exc.witness)


def lattice_phi_matrix(a):
    """(B, B^-1), column j of B being phi of lattice column j in lattice
    coordinates.

    A lattice, or a phi-image of it, that lost rank at working precision
    leaves the comparison indeterminate: InsufficientPrecision."""
    try:
        B = [list(row) for row in zip(*coords_in_column_span(
            a.lattice, a.iso.apply(a.lattice)))]
        return B, mat_inverse(B, a.spec)
    except NonInvertible as exc:
        raise InsufficientPrecision("lattice comparison indeterminate",
                                    witness=exc.witness)


def require_valid_bracket(a):
    """Raise MalformedInput unless the bracket is antisymmetric, satisfies
    Jacobi and commutes with F, by the algebra's stored verdict."""
    for key in ("antisymmetry", "jacobi", "f_equivariance"):
        if not a._laws[key]:
            raise MalformedInput(f"bracket law violated: {key}",
                                 witness=a._laws["witnesses"][key])


def require_vectors(a, vectors):
    """Raise unless every vector of the list is a coordinate vector of a:
    a.rank entries, each a PadicScalar over a.spec.

    A vector with no length or another length is MalformedInput, an entry
    that is not a PadicScalar too; an entry over another ring is
    FieldSpecMismatch, with the entry's ring on the left.  The lengths
    are checked first, then each entry once.
    """
    try:
        lengths = [len(v) for v in vectors]
    except TypeError as exc:
        raise MalformedInput("a coordinate vector is a list of PadicScalar",
                             witness={"rank": a.rank}) from exc
    if any(n != a.rank for n in lengths):
        raise MalformedInput("vector length differs from the algebra's rank",
                             witness={"rank": a.rank, "lengths": lengths})
    _require_scalars(a.spec, vectors,
                     "a coordinate vector is a list of PadicScalar",
                     {"rank": a.rank})


# --------------------------------------------------------------------------
# subspace helpers (row-span form)
# --------------------------------------------------------------------------

def span_basis(vectors):
    """Echelon basis of the span of the given coordinate vectors."""
    vecs = [v for v in vectors if not _vec_is_zero(v)]
    if not vecs:
        return []
    rows, pivots = row_echelon(vecs)
    return [rows[r] for r, _ in pivots]


def in_span(basis, targets):
    """Whether every vector in the list targets lies in the span of basis.

    One solve answers all of them; zero targets need none, so an empty
    list, or one of zero vectors only, is True without solving.  False
    only when some residual is certified nonzero; a basis that lost rank
    at working precision raises InsufficientPrecision instead.
    """
    targets = [v for v in targets if not _vec_is_zero(v)]
    if not targets:
        return True
    try:
        return None not in coords_in_column_span(basis, targets)
    except NonInvertible as exc:
        # the basis is an echelon span, independent by construction
        raise InsufficientPrecision(
            "span basis lost rank at working precision",
            witness=exc.witness) from exc


def _require_in_span(basis, targets, what):
    if not in_span(basis, targets):
        raise InvariantViolated(what, witness={"dimension": len(basis)})


# --------------------------------------------------------------------------
# lower central series and lattice intersection
# --------------------------------------------------------------------------

def lower_central_series(a):
    """Chain of spans [full, [a,a], [a,[a,a]], ..], empty last; plus class.

    Stored in the _series slot; the chain is copied down to the vectors.
    """
    return _stored(a, "_series", _lower_central_series,
                   lambda memo: ([[list(v) for v in term] for term in memo[0]],
                                 memo[1]))


def _stored(a, slot, compute, copy_out):
    """The memo contract of the DieudonneLie docstring for one slot: the
    first call stores compute(a), or the IsolabError it raised; every
    call returns copy_out of the stored answer or raises a replay."""
    memo = getattr(a, slot)
    if memo is None:
        try:
            memo = compute(a)
        except IsolabError as exc:
            memo = _replay(exc)
        setattr(a, slot, memo)
    if isinstance(memo, IsolabError):
        raise _replay(memo)
    return copy_out(memo)


def _replay(exc):
    """A new exception of exc's class, message and witness, with no
    traceback: a stored error raised again keeps no frames alive."""
    return type(exc)(str(exc), witness=copy.deepcopy(exc.witness))


def _lower_central_series(a):
    """The chain and class for lower_central_series."""
    require_valid_bracket(a)
    # the basis vectors are the echelon rows span_basis would return
    basis = mat_identity(a.spec, a.rank)
    chain = [basis]
    while chain[-1]:
        cur = chain[-1]
        nxt_vecs = []
        for b in basis:
            for w in cur:
                nxt_vecs.append(a.bracket_vec(b, w))
        nxt = span_basis(nxt_vecs)
        if len(nxt) >= len(cur):
            raise NotNilpotent("lower central series stabilized",
                               witness={"dimension": len(nxt)})
        _require_in_span(nxt, a.iso.apply(nxt), "series term not F-stable")
        chain.append(nxt)
    n_class = len(chain) - 1
    return chain, n_class


def lattice_intersect_subspace(lattice_cols, subspace_basis):
    """Basis (ambient coordinates) of lattice ∩ span(subspace_basis).

    The membership conditions are rows annihilating the subspace; their
    composite with the lattice matrix has kernel of known dimension, which
    certifies the elimination; the kernel is then saturated to unit pivots
    over the valuation ring.  lattice_cols must be n columns of length n,
    n the length of the subspace vectors, else MalformedInput; both
    arguments and their vectors are sequences by padic._sequence's rule.
    A lattice that lost rank at working precision is
    InsufficientPrecision, whatever the subspace.
    """
    if not (_sequence(lattice_cols) and _sequence(subspace_basis) and all(
            map(_sequence, (*lattice_cols, *subspace_basis)))):
        raise MalformedInput(
            "lattice and subspace must be sequences of vectors",
            witness={"lattice": type(lattice_cols).__name__,
                     "subspace": type(subspace_basis).__name__})
    w = len(subspace_basis)
    if w == 0:
        return []
    n = len(subspace_basis[0])
    if len(lattice_cols) != n or any(
            len(v) != n for v in (*lattice_cols, *subspace_basis)):
        raise MalformedInput(
            "lattice needs n columns of length n, n the subspace's length",
            witness={"lattice": [len(c) for c in lattice_cols],
                     "subspace": [len(b) for b in subspace_basis]})
    try:  # no targets: rank only
        coords_in_column_span(lattice_cols, [])
    except NonInvertible as exc:
        raise InsufficientPrecision(
            "lattice lost rank at working precision",
            witness=exc.witness) from exc
    # rows annihilating the span: q with <b_i, q> = 0 for every basis vector
    W_T = [list(b) for b in subspace_basis]
    ann = kernel_basis(W_T, expected_dim=n - w)
    if not ann:  # the whole space: the lattice itself
        return [list(c) for c in lattice_cols]
    Lat = [list(row) for row in zip(*lattice_cols)]
    QL = mat_mul([list(q) for q in ann], Lat)
    K = kernel_basis(QL, expected_dim=w)
    sat = saturate_columns(K)
    return [mat_vec(Lat, c) for c in sat]


# --------------------------------------------------------------------------
# slope split
# --------------------------------------------------------------------------

def algebra_slope_split(a):
    """slope_split(a.iso): the blocks (slope, basis, block), slopes ascending.

    Stored in the _split slot; the copy is new down to the basis vectors
    and each block's F rows.
    """
    return _stored(a, "_split", lambda a: slope_split(a.iso),
                   lambda memo: [(lam, [list(v) for v in basis],
                                  Isocrystal(sub.spec,
                                             [list(row) for row in sub.F]))
                                 for lam, basis, sub in memo])


def minimal_slope_lattice(a):
    """Basis of the lattice ∩ the minimal-slope part: the
    lattice_intersect_subspace of a.lattice with the span of the first
    block of algebra_slope_split(a), or [] for an algebra with no block.
    An algebra with no lattice is MalformedInput.

    Stored in the _min_lattice slot; the basis is copied down to the
    vectors.
    """
    if a.lattice is None:
        raise MalformedInput("no lattice on this algebra")
    return _stored(a, "_min_lattice", _minimal_slope_lattice,
                   lambda memo: [list(v) for v in memo])


def _minimal_slope_lattice(a):
    """The basis for minimal_slope_lattice."""
    blocks = algebra_slope_split(a)
    # slopes strictly increase, so the first block is the minimal-slope one
    b_cols = blocks[0][1] if blocks else []
    return lattice_intersect_subspace(a.lattice, span_basis(b_cols))


# --------------------------------------------------------------------------
# dimensions and centrality
# --------------------------------------------------------------------------

_SLOPE_PAIR = ("a slope pair is a rational slope and a non-negative integer "
               "multiplicity")


def pdiv_dimension(slopes, check_range=True):
    """Sum of (-slope) * multiplicity over a slope multiset.

    slopes is a sequence of pairs by padic._sequence's rule.  Each slope is
    rational by padic._rational's rule and each multiplicity a non-negative
    integer by padic._integral's; anything else, a non-sequence slopes (an
    iterator, a mapping or a string) or an entry that is not a pair
    included, is MalformedInput.
    check_range=False skips the [-1, 0] window (used by the root-datum
    cross-check, where the same additive formula applies to wider windows).
    """
    if not _sequence(slopes):
        raise MalformedInput(_SLOPE_PAIR, witness={"slopes": str(slopes)})
    total = Fraction(0)
    for entry in slopes:
        try:
            raw, mult = entry
        except (TypeError, ValueError) as exc:
            raise MalformedInput(_SLOPE_PAIR, witness={"entry": str(entry)}) \
                from exc
        lam = _rational(raw)
        if lam is None or not _integral(mult) or mult < 0:
            raise MalformedInput(_SLOPE_PAIR,
                                 witness={"slope": str(raw),
                                          "multiplicity": str(mult)})
        if check_range and not (-1 <= lam <= 0):
            raise SlopeOutOfRange("slope outside [-1, 0]",
                                  witness={"slope": str(lam)})
        total += -lam * int(mult)
    if total.denominator == 1:
        return int(total)
    return total


def minimal_slope_center_check(a):
    """True iff the minimal-slope part commutes with everything.

    Precondition: all slopes strictly negative.  For every input passing
    dla_validate this must return true; false indicates an internal bug.
    A rank-0 algebra has no slope and an empty minimal-slope part, so it
    answers (True, None).

    The polygon is computed once: the slopes are read from it, and the
    minimal-slope block is cut from it by the kept-block pipeline
    slope_part uses, so no other block is computed and a block that
    cannot be certified raises only when its slope is the minimal one.
    """
    polygon = _slope_polygon(a.iso)
    slopes = [lam for lam, _ in polygon[3]]
    for lam in slopes:
        if lam >= 0:
            raise SlopeNotStrictlyNegative("nonnegative slope present",
                                           witness={"slope": str(lam)})
    require_valid_bracket(a)
    if not slopes:
        return True, None
    mu1 = min(slopes)
    try:
        blocks = _slope_blocks(a.iso, polygon, lambda lam: lam == mu1)
    except InsufficientPrecision as exc:
        raise SplitUnavailable("minimal-slope part not computable",
                               witness=exc.witness)
    cols = [b for _, basis, _ in blocks for b in basis]
    basis = mat_identity(a.spec, a.rank)
    for b in cols:
        for i, e in enumerate(basis):
            if not _vec_is_zero(a.bracket_vec(b, e)):
                return False, {"witness_basis_index": i}
    return True, None


# --------------------------------------------------------------------------
# automorphism Lie algebra
# --------------------------------------------------------------------------

def aut_lie_algebra(a, mode="derivation"):
    """Solve for endomorphisms commuting with Frobenius and the bracket law.

    mode="derivation": g[x,y] = [gx,y] + [x,gy] (the Lie-algebra condition).
    mode="literal": [gx,y] + [x,gy] = 0 with the quadratic term dropped;
    the report flags the exclusion instead of substituting silently.
    """
    if mode not in ("derivation", "literal"):
        raise MalformedInput("unknown mode", witness=mode)
    require_valid_bracket(a)
    spec = a.spec
    n = a.rank
    f = spec.f
    basis = mat_identity(spec, n)
    tpow = [PadicScalar.from_coeffs(spec, tuple(1 if s == m else 0
                                                for s in range(f)))
            for m in range(f)]

    def equations(g):
        eqs = []
        gF = mat_mul(g, a.iso.F)
        Fsg = mat_mul(a.iso.F, mat_sigma(g))
        for i in range(n):
            for j in range(n):
                eqs.append(gF[i][j] - Fsg[i][j])
        for i in range(n):
            for j in range(i + 1, n):
                gei = [g[r][i] for r in range(n)]
                gej = [g[r][j] for r in range(n)]
                t1 = a.bracket_vec(gei, basis[j])
                t2 = a.bracket_vec(basis[i], gej)
                if mode == "derivation":
                    gc = mat_vec(g, a.bracket[i][j])
                    eqs.extend(gc[r] - t1[r] - t2[r] for r in range(n))
                else:
                    eqs.extend(t1[r] + t2[r] for r in range(n))
        return eqs

    zero = PadicScalar.zero(spec)
    unknowns = []
    columns = []
    for r in range(n):
        for c in range(n):
            for m in range(f):
                g = [[zero] * n for _ in range(n)]
                g[r][c] = tpow[m]
                col = equations(g)
                comps = []
                for e in col:
                    comps.extend(e.qp_components())
                columns.append(comps)
                unknowns.append((r, c, m))
    # the transpose; a rank-0 algebra has no unknowns, no rows and the
    # zero map alone
    rows = [list(row) for row in zip(*columns)]
    sol = kernel_basis(rows)
    out = []
    for gamma in sol:
        g = [[zero] * n for _ in range(n)]
        for idx, (r, c, m) in enumerate(unknowns):
            coef = gamma[idx]
            if coef.is_zero:
                continue
            lifted = PadicScalar.from_raw(
                spec, (coef.unit[0],) + (0,) * (f - 1), coef.v,
                coef.abs_prec)
            g[r][c] = g[r][c] + lifted * tpow[m]
        out.append(g)
    return {"dimension": len(out), "basis": out, "mode": mode,
            "quadratic_term_dropped": mode == "literal"}


def smallest_f_stable_subalgebra(a, generators):
    """Closure of the generators under Phi, Phi^-1 and the bracket."""
    require_vectors(a, generators)
    require_valid_bracket(a)
    cur, size = span_basis(generators), None
    while len(cur) != size:  # until a step adds no dimension
        size = len(cur)
        new_vecs = list(cur)
        for img, pre in zip(a.iso.apply(cur), a.iso.apply_inverse(cur)):
            new_vecs += [img, pre]
        for i in range(size):
            for j in range(i + 1, size):
                new_vecs.append(a.bracket_vec(cur[i], cur[j]))
        cur = span_basis(new_vecs)
    _require_in_span(cur, a.iso.apply(cur), "closure not F-stable")
    _require_in_span(cur, [a.bracket_vec(cur[i], cur[j])
                           for i in range(len(cur))
                           for j in range(i + 1, len(cur))],
                     "closure not closed under the bracket")
    return cur
