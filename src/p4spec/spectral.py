"""Exact and numeric Laplacian spectra.

The exact path stays in arbitrary-precision integer arithmetic end to end.
One char_poly runs the Faddeev-LeVerrier recurrence on the packed rows of
an IntMatrix, which has no positive entry off its diagonal, and checks
that each of its divisions is exact; exact_spectrum splits the integer
eigenvalues off by synthetic division.
is_l_integral, up to MAX_N vertices, runs no Faddeev-LeVerrier step: it
reads e_1, e_2, e_3 of the spectrum from closed forms in the degrees and
the triangle count and looks them up in a dict table of the prefixes of
every integral spectrum on n vertices (every Laplacian eigenvalue lies in
[0, n]).  A missing prefix is a reject; otherwise it accepts iff
prod (L - sI) over the roots S of the integral spectra with that prefix is
the zero matrix.  L is diagonalizable, so that zero puts every eigenvalue
in S, a set of integers, and an integral spectrum with that prefix lies in
S, so it makes that zero.
check_union_relation reads the polynomials of the 76 labeled graphs on at
most 4 vertices from a table it fills once per process (past 4 a table
costs more runs than theorem h makes).
The numeric path is a self-contained cyclic Jacobi eigensolver; no
external linear algebra.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache

from . import MAX_N
from .graphs import Graph, _trusted, bits, check_vertex_count, disjoint_union


# =========================================================================
# integer polynomials, ascending coefficients
# =========================================================================

class IntPolynomial:
    """Polynomial with integer coefficients, stored ascending: coeffs[i] * x^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        c = list(coeffs)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        if not c:
            c = [0]
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        # the zero polynomial reports degree 0
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    def __pow__(self, exp: int) -> "IntPolynomial":
        if exp < 0:
            raise ValueError("negative exponent")
        result = IntPolynomial([1])
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def deflate(self, root: int) -> tuple["IntPolynomial", int]:
        """Synthetic division by (x - root); returns (quotient, remainder)."""
        acc = 0
        out = []
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        rem = out.pop()
        return IntPolynomial(reversed(out)), rem

    def __str__(self) -> str:
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0 and len(self.coeffs) > 1:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                body = xs if mag == 1 else f"{mag}*{xs}"
            if not terms:
                terms.append(f"-{body}" if c < 0 else body)
            else:
                terms.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"


# =========================================================================
# integer matrices and the exact characteristic polynomial
# =========================================================================

class IntMatrix(namedtuple("IntMatrix", "diag minus bound")):
    """Square integer matrix with no positive entry off its diagonal.

    diag is the diagonal.  minus[i] lists the column of each off-diagonal
    entry of row i once per unit of its absolute value, ascending, so a -2
    at column l is l twice.  bound is the largest absolute row sum, the r
    of _field_width.
    """

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.diag)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows."""
        out = []
        for i, d in enumerate(self.diag):
            row = [0] * self.n
            row[i] = d
            for l in self.minus[i]:
                row[l] -= 1
            out.append(tuple(row))
        return tuple(out)


def laplacian(g: Graph) -> IntMatrix:
    """Degree matrix minus adjacency matrix, read off the adjacency bitsets.

    Every off-diagonal nonzero is a -1, so minus[i] is bits(adj[i]), the
    set-bit tuple of row i, and the largest absolute row sum is twice the
    largest degree.
    """
    # lists, not generators: tuple() of a generator over-allocates and
    # shrinks, and CPython keeps the shrunk tuples on free lists that only
    # exact-size requests reuse, so peak RSS grows call by call
    diag = tuple([row.bit_count() for row in g.adj])
    return IntMatrix(diag, tuple([bits(row) for row in g.adj]), 2 * max(diag, default=0))


def _field_width(r: int, n: int) -> int:
    """Bits per packed entry for an n x n matrix of largest absolute row sum r.

    char_poly passes IntMatrix.bound as r.  Every eigenvalue has
    |lambda| <= r, so |c_{n-j}| <= C(n, j) * r^j, and every power has
    ||A^m||_inf <= r^m.  Faddeev-LeVerrier's
    B_k = A * M_k = sum_{j<k} c_{n-j} A^{k-j} then has
    ||B_k||_inf <= r^k * sum_{j<k} C(n, j) <= (2r)^n, and M_{k+1} = B_k + c I
    has the same bound.  So every entry the kernel reads lies in
    [-(2r)^n, (2r)^n], and a signed field of bit_length((2r)^n) + 2 bits holds
    it with room to spare.
    """
    return ((2 * r) ** n).bit_length() + 2


@lru_cache(maxsize=1024)
def _packing(n: int, w: int) -> tuple[tuple[int, ...], int]:
    """Field offsets of an n-entry packed row, and half a field in every field."""
    shifts = tuple(range(0, w * n, w))
    return shifts, sum(1 << (s + w - 1) for s in shifts)


def char_poly(m: IntMatrix) -> IntPolynomial:
    """det(xI - M), exactly, by the Faddeev-LeVerrier recurrence.

    Each row of B_k is packed into one Python int, w bits per entry (see
    _field_width for why w is wide enough).  Packing is linear, so with
    M_k = B_{k-1} + c I, row i of B_k = A * M_k is c times packed row i of A
    plus a combination of the packed rows of B_{k-1}: n * (nonzeros per row)
    bigint operations per step instead of n^3 small-int ones.  Row i takes
    a_ii times its own row and subtracts the row of each entry of minus[i];
    for a Laplacian that is d_i * B_i minus the sum of its neighbours' rows.
    Entries are stored signed; a diagonal entry is read back by adding half
    a field to every field first, so that a negative entry below it borrows
    nothing.

    Step k divides the trace of B_k by k to give c_{n-k}.  For an integer
    matrix that is always exact, and a remainder raises ArithmeticError
    rather than being dropped.

    When every row sums to zero, as in every Laplacian, step n is skipped
    and c_0 = 0.  Proof: M times the all-ones vector is 0, so det M = 0 and
    c_0 = det(-M) = (-1)^n det M = 0.  Only for n >= 2 is step n a step; at
    n = 1, c_0 is the initial coefficient -tr M.
    """
    n = m.n
    if n == 0:
        return IntPolynomial([1])
    w = _field_width(m.bound, n)
    shifts, bias = _packing(n, w)
    field = (1 << w) - 1
    diag, minus = m.diag, m.minus
    a_rows = []
    for d, mi, s in zip(diag, minus, shifts):
        packed = d << s
        for l in mi:
            packed -= 1 << shifts[l]
        a_rows.append(packed)
    b = a_rows
    ck = -sum(diag)
    c = [1, ck]  # descending: c_n = 1, c_{n-1}, ..., c_0
    # a row sums to zero iff its diagonal entry is the length of its minus;
    # lists, not a tuple of map (see laplacian)
    singular = n >= 2 and list(map(len, minus)) == list(diag)
    for k in range(2, n + 1 - singular):
        t = -(n << (w - 1))
        bk = []
        for d, mi, bi, ai, s in zip(diag, minus, b, a_rows, shifts):
            x = d * bi + ck * ai
            for l in mi:
                x -= b[l]
            bk.append(x)
            t += ((x + bias) >> s) & field
        b = bk
        if t % k:
            raise ArithmeticError("Faddeev-LeVerrier trace division is not exact")
        ck = -t // k
        c.append(ck)
    if singular:
        c.append(0)
    c.reverse()
    return IntPolynomial(c)


# =========================================================================
# exact spectra
# =========================================================================

class ExactSpectrum(namedtuple("ExactSpectrum", "integer_roots residual")):
    """Integer eigenvalues with multiplicities plus the unfactored residual.

    integer_roots is a tuple of (eigenvalue, multiplicity) pairs sorted by
    eigenvalue, descending.  The residual is a monic IntPolynomial with no
    integer roots; degree 0 means the spectrum is fully integral.
    """

    __slots__ = ()

    @property
    def is_integral(self) -> bool:
        return self.residual.degree == 0

    def to_dict(self) -> dict:
        return {"integer_roots": [[v, m] for v, m in self.integer_roots],
                "residual": list(self.residual.coeffs)}


def extract_integer_roots(p: IntPolynomial, hi: int) -> ExactSpectrum:
    """Split off every integer root of the monic p in [0, hi], with multiplicity.

    The root 0 has the multiplicity of the zero low coefficients.  Any other
    integer root r divides the constant term, so r is tried only when it
    does; a Horner evaluation then decides, and only a root is deflated.
    Once the residual has degree 0 it has no roots left.
    """
    roots = []
    c = p.coeffs
    z = 0
    while not c[z]:
        z += 1
    if z:
        roots.append((0, z))
        p = IntPolynomial(c[z:])
    for r in range(1, hi + 1):
        if p.degree == 0:
            break
        mult = 0
        while p.coeffs[0] % r == 0 and p(r) == 0:
            p, _ = p.deflate(r)
            mult += 1
        if mult:
            roots.append((r, mult))
    roots.sort(key=lambda rm: -rm[0])
    return ExactSpectrum(tuple(roots), p)


def exact_spectrum(g: Graph) -> ExactSpectrum:
    """Exact Laplacian spectrum: integer eigenvalues plus residual factor.

    Every Laplacian eigenvalue is at most n.  Rather than assuming that
    bound, the integer roots are searched up to the Gershgorin disc bound
    max(n, 2*maxdeg), which is max(n, IntMatrix.bound) of the Laplacian,
    and a root above n raises ArithmeticError.  The search tries only
    divisors of the constant term, so the range past n costs little.
    """
    m = laplacian(g)
    spec = extract_integer_roots(char_poly(m), max(g.n, m.bound))
    if spec.integer_roots and spec.integer_roots[0][0] > g.n:
        raise ArithmeticError("Laplacian eigenvalue above n: bound violated")
    return spec


def _prefix(g: Graph) -> tuple[int, int, int]:
    """e_1, e_2, e_3 of g's Laplacian eigenvalues, from closed forms.

    det(xI - L) = x^n - e_1 x^(n-1) + e_2 x^(n-2) - e_3 x^(n-3) + ..., and
    the power sums p_k = tr(L^k) have closed forms in the degrees d and the
    triangle count t: p_1 = 2m, p_2 = sum d^2 + 2m, and, as tr(D^2 A) = 0,
    (A^2)_ii = d_i and tr(A^3) = 6t, p_3 = sum d^3 + 3 sum d^2 - 6t.  Here
    6t is summed as the common neighbours of each ordered adjacent pair.
    Newton's identities give e_1 = p_1, e_2 = (e_1 p_1 - p_2)/2 and
    e_3 = (e_2 p_1 - e_1 p_2 + p_3)/3.  Both divisions are exact for a
    graph, and a remainder raises ArithmeticError rather than being dropped.
    """
    adj = g.adj
    e1 = s2 = s3 = walks = 0
    for row in adj:
        d = row.bit_count()
        e1 += d
        s2 += d * d
        s3 += d * d * d
        for j in bits(row):
            walks += (row & adj[j]).bit_count()
    p2 = s2 + e1
    p3 = s3 + 3 * s2 - walks
    twice_e2 = e1 * e1 - p2
    if twice_e2 & 1:
        raise ArithmeticError("closed-form e_2 is not an integer")
    e2 = twice_e2 >> 1
    thrice_e3 = e2 * e1 - e1 * p2 + p3
    if thrice_e3 % 3:
        raise ArithmeticError("closed-form e_3 is not an integer")
    return e1, e2, thrice_e3 // 3


@lru_cache(maxsize=None)
def _integral_prefixes(n: int) -> dict[tuple[int, int, int], int]:
    """The prefix (e_1, e_2, e_3) of every spectrum an L-integral graph on n
    vertices can have, mapped to a mask of the roots of all such spectra
    sharing it.

    Its Laplacian eigenvalues are 0 and a multiset R of n - 1 integers in
    [0, n] (Merris 1994), so its e_k are those of R.  Bit s of a prefix's
    mask is set iff s is an eigenvalue of some such spectrum with that
    prefix, so bit 0 always is.
    """
    table = {}
    for roots in itertools.combinations_with_replacement(range(n + 1), n - 1):
        e1 = e2 = e3 = 0
        mask = 1
        for r in roots:
            e3 += r * e2
            e2 += r * e1
            e1 += r
            mask |= 1 << r
        key = e1, e2, e3
        table[key] = table.get(key, 0) | mask
    return table


def _root_product(m: IntMatrix, roots: tuple[int, ...]) -> list[int]:
    """prod_{s in roots} (M - sI) for a Laplacian M and roots in [0, n], as
    packed rows.

    Each row is one Python int, w bits per entry, and M = I first: a factor
    maps row i to (d_i - s) times itself minus the rows of i's neighbours.
    A factor's absolute row sum is |d_i - s| + d_i <= max(s, 2 d_i) <= r,
    with r = max(n, 2 * maxdeg) = max(n, IntMatrix.bound), the Gershgorin
    bound of exact_spectrum, so a product of k factors has entries of
    absolute value at most r^k, and a signed field of w = bit_length(r^k) + 1
    bits holds each.  Packing is linear, so a packed row is exactly
    sum_j x_j 2^(wj), and as every |x_j| < 2^(w-1) it is 0 only if every
    x_j is: x_0 = 0 mod 2^w forces x_0 = 0, then x_1, and so on.
    """
    n = m.n
    w = (max(n, m.bound) ** len(roots)).bit_length() + 1
    rows = [1 << shift for shift in range(0, w * n, w)]
    for s in roots:
        out = []
        for d, nb, x in zip(m.diag, m.minus, rows):
            x *= d - s
            for j in nb:
                x -= rows[j]
            out.append(x)
        rows = out
    return rows


def is_l_integral(g: Graph) -> bool:
    """True iff every Laplacian eigenvalue of g is an integer.

    Up to MAX_N vertices the answer is an exact two-stage certificate, with
    no Faddeev-LeVerrier run, no root search and no float.  First
    _prefix(g) is looked up in _integral_prefixes(n): if no entry shares
    it, no integral spectrum does, and the answer is False.  Otherwise, with
    S the entry's roots, the answer is whether prod_{s in S} (L - sI) = 0,
    read off _root_product's packed rows.

    Proof.  L is symmetric, so it is diagonalizable, and the product
    vanishes iff every eigenvalue of L is a root of prod (x - s), that is,
    lies in S.  If g is L-integral, its spectrum is an entry's with g's
    prefix, so it lies in S and the product vanishes.  If the product
    vanishes, every eigenvalue lies in S, a set of integers.  So only an
    exact integer zero accepts a graph.  Above MAX_N the answer is
    exact_spectrum(g).is_integral.
    """
    n = g.n
    if not 0 < n <= MAX_N:
        return exact_spectrum(g).is_integral
    mask = _integral_prefixes(n).get(_prefix(g))
    return mask is not None and not any(_root_product(laplacian(g), bits(mask)))


# =========================================================================
# numeric spectra: cyclic Jacobi
# =========================================================================

_JACOBI_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 100


def _offdiag_norm(a: list[list[float]], n: int) -> float:
    s = 0.0
    for i in range(n):
        ai = a[i]
        for j in range(i + 1, n):
            s += ai[j] * ai[j]
    return math.sqrt(2.0 * s)


def numeric_spectrum(g: Graph) -> list[float]:
    """All Laplacian eigenvalues, ascending, by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm drops below _JACOBI_TOL,
    with a cap of _JACOBI_MAX_SWEEPS sweeps; raises ArithmeticError if the
    cap is hit.
    """
    n = g.n
    a = [[float(x) for x in row] for row in laplacian(g).rows]
    if n <= 1:
        return [a[0][0]] if n else []
    for _ in range(_JACOBI_MAX_SWEEPS):
        if _offdiag_norm(a, n) < _JACOBI_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                app, aqq = a[p][p], a[q][q]
                a[p][p] = app - t * apq
                a[q][q] = aqq + t * apq
                a[p][q] = a[q][p] = 0.0
                for i in range(n):
                    if i == p or i == q:
                        continue
                    aip, aiq = a[i][p], a[i][q]
                    a[i][p] = a[p][i] = c * aip - s * aiq
                    a[i][q] = a[q][i] = s * aip + c * aiq
    else:
        raise ArithmeticError("Jacobi sweep cap reached without convergence")
    return sorted(a[i][i] for i in range(n))


# =========================================================================
# closed-form spider spectra
# =========================================================================

class SurdEigenvalue(namedtuple("SurdEigenvalue", "p q sign")):
    """The exact value (p + 2 + sign*sqrt(q)) / 2 with q a non-square."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, sign: int):
        if sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")
        if q <= 0 or math.isqrt(q) ** 2 == q:
            raise ValueError(f"q = {q} must be a positive non-square")
        d = (p + 2) ** 2 - q
        if d % 4:
            raise ValueError(f"(p + 2)^2 - q = {d} is not divisible by 4: "
                             "the surd pair has no integer quadratic")
        return super().__new__(cls, p, q, sign)

    @classmethod
    def _make(cls, fields):
        # namedtuple's _make, which _replace calls, would skip the checks
        return cls(*fields)

    def value(self) -> float:
        return (self.p + 2 + self.sign * math.sqrt(self.q)) / 2.0

    def pair_quadratic(self) -> IntPolynomial:
        """Monic quadratic with this surd and its conjugate as roots."""
        a = self.p + 2
        return IntPolynomial([(a * a - self.q) // 4, -a, 1])

    def __str__(self) -> str:
        op = "+" if self.sign > 0 else "-"
        return f"({self.p + 2}{op}sqrt({self.q}))/2"


class ClosedFormSpectrum(namedtuple("ClosedFormSpectrum", "entries")):
    """Spectrum entries (value, multiplicity); values are ints or surd pairs."""

    __slots__ = ()

    def values(self) -> list[float]:
        """All eigenvalues as floats, ascending, repeated by multiplicity."""
        out: list[float] = []
        for val, mult in self.entries:
            x = float(val) if isinstance(val, int) else val.value()
            out.extend([x] * mult)
        return sorted(out)

    def char_poly(self) -> IntPolynomial:
        """Expand to the monic integer polynomial with these roots.

        Surds must occur in conjugate pairs of equal multiplicity, which is
        what makes the product integral.
        """
        p = IntPolynomial([1])
        surds: dict[tuple[int, int], dict[int, int]] = {}
        for val, mult in self.entries:
            if isinstance(val, int):
                p = p * (IntPolynomial([-val, 1]) ** mult)
            else:
                surds.setdefault((val.p, val.q), {}).setdefault(val.sign, 0)
                surds[(val.p, val.q)][val.sign] += mult
        for (pp, qq), by_sign in surds.items():
            if by_sign.get(1, 0) != by_sign.get(-1, 0):
                raise ValueError("surd eigenvalues must pair up by conjugates")
            quad = SurdEigenvalue(pp, qq, 1).pair_quadratic()
            p = p * (quad ** by_sign[1])
        return p


def thin_spider_closed_form(k: int, head_size: int) -> ClosedFormSpectrum:
    """Laplacian spectrum of a thin spider with an edgeless head, in closed form.

    k is the number of legs (= clique size), head_size the number of head
    vertices; the head must be edgeless for these formulas.  All surds stay
    exact: (p + 2 +- sqrt(q)) / 2 with p = k + head_size.
    """
    if k < 2:
        raise ValueError("a spider needs k >= 2")
    if head_size < 0:
        raise ValueError("head_size must be nonnegative")
    j = head_size
    p = k + j
    entries: list[tuple[int | SurdEigenvalue, int]] = []
    if j == 0:
        q = k * k + 4
        entries.append((SurdEigenvalue(k, q, 1), k - 1))
        entries.append((SurdEigenvalue(k, q, -1), k - 1))
        entries.append((2, 1))
        entries.append((0, 1))
    else:
        q1 = p * p + 4
        q2 = p * p + 4 - 4 * k
        entries.append((SurdEigenvalue(p, q1, 1), k - 1))
        entries.append((SurdEigenvalue(p, q1, -1), k - 1))
        if j >= 2:
            entries.append((k, j - 1))
        entries.append((SurdEigenvalue(p, q2, 1), 1))
        entries.append((SurdEigenvalue(p, q2, -1), 1))
        entries.append((0, 1))
    return ClosedFormSpectrum(tuple(entries))


def quotient_matrix(k: int, j: int) -> IntMatrix:
    """3x3 quotient of the thin-spider Laplacian over (body, legs, head) parts.

    Valid for k >= 2 legs and j >= 1 edgeless head vertices.  The partition is
    equitable, so the quotient's characteristic polynomial divides the full
    Laplacian characteristic polynomial exactly.  Its dense rows are
    [[j+1, -1, -j], [-1, 1, 0], [-k, 0, k]]; 2k + j obeys the vertex cap.
    """
    if k < 2:
        raise ValueError("a spider needs k >= 2")
    if j < 1:
        raise ValueError("the quotient needs a nonempty head")
    check_vertex_count(2 * k + j)
    return IntMatrix((j + 1, 1, k), ((1,) + (2,) * j, (0,), (0,) * k), 2 * max(j + 1, k))


# =========================================================================
# spectral relations
# =========================================================================

@lru_cache(maxsize=None)
def _small_polys(n: int) -> dict[tuple[int, ...], IntPolynomial]:
    """char_poly(laplacian(g)) of every labeled graph g on n vertices, by g.adj."""
    rows = [()]
    for v in range(n):
        rows = [tuple([a | (nb >> u & 1) << v for u, a in enumerate(adj)]) + (nb,)
                for adj in rows for nb in range(1 << v)]
    return {adj: char_poly(laplacian(_trusted(n, adj))) for adj in rows}


def _laplacian_poly(g: Graph) -> IntPolynomial:
    if g.n <= 4:  # 75 FL runs fill the tables; n = 5 alone would take 1,024
        return _small_polys(g.n)[g.adj]
    return char_poly(laplacian(g))


def check_union_relation(g: Graph, h: Graph) -> bool:
    """Exact check: char poly of a disjoint union is the product of the parts'.

    A graph on at most 4 vertices reads the table of all 76 such labeled
    graphs, filled by FL once per process; a larger one is its own FL run.
    """
    return _laplacian_poly(disjoint_union(g, h)) == _laplacian_poly(g) * _laplacian_poly(h)
