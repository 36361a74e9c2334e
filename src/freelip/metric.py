"""Finite pointed metric spaces and purely metric computations.

Distances are exact rationals throughout: segment membership is an exact
equality test and the extremal dichotomies downstream are discontinuous in
the data, so no floating point is allowed anywhere in this module.  A space
stores its distances once, as integer rows over one unit, which every kernel
reads; the Fraction matrix `dist` is a view built on first read, and `d`
reads one distance without it.  Two integer kernels on such rows serve
every layer: `min_plus`, the McShane minimum, and `steep_pair`, the
1-Lipschitz test the triangle check runs on each row.

Each outside input has one reader: `_integer_rows` reads every matrix of
rational entries, a `validate_space` argument or a space file's, and
`PointedMetricSpace.pair` resolves every pair of endpoints.

Every space is built on integer rows and checked by one function,
`_validated`, and every random space is a shortest-path closure.  Both the
triangle check and the closure compare whole rows at once, on fields
packed into one big integer (Lamport, "Multiple byte processing with
full-word instructions", CACM 18(8), 1975; SIMD within a register, Fisher
and Dietz, LCPC 1998), in the one layout of `_packing`:
- for a bound B on every value a field must hold, a field is w bits, the
  least multiple of 8 above bit_length(B), so B < 2^(w-1) and the top bit
  of each field is a guard; row i is packed as P_i = sum_k d(i,k) 2^(w k);
  ONES is the packed row of ones and HIGH = 2^(w-1) ONES the guard bits;
- an integer sum_k c_k 2^(w k) with every c_k in [0, 2^w) has the c_k as
  its base-2^w digits, so no carry or borrow crosses a field.

The triangle check, `_first_loose_row`, packs with B = 3 M, M the largest
|entry|:
- for a pair i < j, with D = P_i - P_j and C = (d(i,j) + 2^(w-1)) * ONES,
  the integers C - D and C + D are sum_k (2^(w-1) + t_k) * 2^(w k) with
  t_k = d(i,j) -+ (d(i,k) - d(j,k)).  Each |t_k| <= 3 M < 2^(w-1), so each
  coefficient lies in [0, 2^w) and is a digit;
- the top bit of a digit is set exactly when its t_k >= 0, so every k
  satisfies |d(i,k) - d(j,k)| <= d(i,j) exactly when every top bit is set
  in both, that is (C - D) & (C + D) & HIGH == HIGH;
- symmetry is checked first, so the one unordered pair settles the
  triangles (i, j, k) and (j, i, k): O(n^2) big-integer operations where a
  scan takes n^3 integer subtractions.

The closure, `floyd_warshall` on a nonnegative matrix of at least
PACKED_CLOSURE_FROM points, packs with B = 2 M, M the largest entry; a
closure only lowers entries, so every value stays in [0, M]:
- at pivot k, row i becomes the fieldwise minimum of P_i and
  S - ONES, for S = d(i,k) ONES + P_k + ONES.  Each digit of
  (P_i | HIGH) - S is 2^(w-1) + d(i,j) - (d(i,k) + d(k,j)) - 1, in
  [0, 2^w) as d(i,j) <= M and d(i,k) + d(k,j) <= 2 M < 2^(w-1); its top
  bit is set exactly where the path through k is strictly shorter;
- with H those top bits, 2 H - H / 2^(w-1) fills each such field with
  ones, and that mask splices the fields of S - ONES into P_i; H = 0
  leaves the row as it is;
- a pivot takes a dozen big-integer operations per row where the scalar
  loop takes n additions and comparisons.  On random_space's weights the
  two break even at 12 to 14 points, and the scalar loop is faster below;
  at 48 points the packed loop takes a third of the time, at 192 a sixth.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import lshift, sub
from typing import Iterable, Sequence

from .errors import (
    AsymmetricDistance,
    BadBaseIndex,
    DegeneratePair,
    DuplicateLabel,
    EpsilonOutOfRange,
    TriangleViolation,
    UnknownLabel,
    ZeroDistanceDistinctPoints,
)
from .rationals import as_fraction, scale_to_integers
from .records import record

# the least n whose full closure runs packed; on random_space's weights the
# packed loop runs ahead from about 14 points, and 16 keeps a margin
PACKED_CLOSURE_FROM = 16


@record
class PointedMetricSpace:
    """A finite metric space with a distinguished base point.

    Instances are immutable and always satisfy the metric axioms; construct
    them through :func:`validate_space` or another builder, each of which
    checks symmetry, separation and the triangle inequality and reports the
    first violation found.

    `scaled` = (unit, rows) is the one, canonical form of the distances:
    d(i,j) = rows[i][j] / unit with gcd(unit, every entry) = 1, so equal
    distances, however written, give equal spaces and equal hashes.
    """

    labels: tuple[str, ...]
    base: int
    scaled: tuple[int, tuple[tuple[int, ...], ...]]

    @property
    def n(self) -> int:
        return len(self.labels)

    def points(self) -> range:
        return range(self.n)

    def nonbase_points(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if i != self.base)

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distances as Fractions, rows / unit, for callers that read the whole table.

        Built on first read and cached; no kernel reads it, and :meth:`d`
        does not build it.
        """
        unit, rows = self.scaled
        return tuple(tuple(Fraction(v, unit) for v in row) for row in rows)

    def d(self, i: int, j: int) -> Fraction:
        """The distance d(i, j) as a Fraction, read from one entry of `scaled`, not the table."""
        unit, rows = self.scaled
        return Fraction(rows[i][j], unit)

    def index(self, label) -> int:
        """Resolve a point label to its index."""
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise UnknownLabel(label) from None

    def resolve(self, key) -> int:
        """Resolve a point index (an int, not a bool) or a label to an index."""
        if isinstance(key, int) and not isinstance(key, bool):
            if not (0 <= key < self.n):
                raise UnknownLabel(key)
            return key
        return self.index(key)

    def pair(self, p, q) -> tuple[int, int]:
        """Two endpoints, resolved as :meth:`resolve` does; equal ones raise DegeneratePair."""
        p, q = self.resolve(p), self.resolve(q)
        if p == q:
            raise DegeneratePair(f"endpoints coincide: {self.labels[p]!r}")
        return p, q

    def ordered_pairs(self) -> list[tuple[int, int]]:
        """All ordered pairs of distinct point indices."""
        return [(i, j) for i in range(self.n) for j in range(self.n) if i != j]

    def radius(self, A: Iterable[int]) -> Fraction:
        """Maximum distance from the base point over A (indices or labels); 0 for empty A."""
        unit, rows = self.scaled
        row = rows[self.base]
        return Fraction(max((row[self.resolve(x)] for x in A), default=0), unit)

    def segment(self, p: int, q: int, epsilon=Fraction(0)) -> "Segment":
        """Metric segment between p and q, optionally relaxed by epsilon.

        A point x belongs to the relaxed segment when
        d(p,x) + d(x,q) <= d(p,q) / (1 - epsilon); epsilon = 0 gives the
        exact segment.  Values epsilon >= 1 are rejected rather than
        interpreted (the membership bound would be meaningless).  The
        endpoints are resolved by :meth:`pair`.

        Membership is decided on the integer rows s of `scaled`: with
        d = s / unit and epsilon = num / den, multiplying the bound by the
        positive unit * (den - num) gives
        (s[p][x] + s[x][q]) * (den - num) <= s[p][q] * den, with no
        division.
        """
        p, q = self.pair(p, q)
        eps = as_fraction(epsilon)
        if eps < 0 or eps >= 1:
            raise EpsilonOutOfRange(f"epsilon must satisfy 0 <= eps < 1, got {eps}")
        rows = self.scaled[1]
        slack = eps.denominator - eps.numerator
        bound = rows[p][q] * eps.denominator
        members = frozenset(
            x for x, (a, b) in enumerate(zip(rows[p], rows[q])) if (a + b) * slack <= bound
        )
        return Segment(p=p, q=q, epsilon=eps, members=members)


@record
class Segment:
    """Points lying (almost) between two endpoints.

    The endpoints are always members.  A segment is called trivial when it
    contains nothing but its endpoints.
    """

    p: int
    q: int
    epsilon: Fraction
    members: frozenset[int]

    def is_trivial(self) -> bool:
        return self.members == frozenset((self.p, self.q))


def floyd_warshall(W: list[list[int]], pivots: Iterable[int] | None = None) -> list[list[int]]:
    """Close an integer arc-length matrix under shortest paths, in place (Floyd, CACM 1962).

    Paths pass through the `pivots` only, every point by default.  The full
    closure of a nonnegative matrix of at least PACKED_CLOSURE_FROM points
    runs on packed rows (:func:`_packed_closure`); a pivoted closure, or
    one with a negative arc, runs the scalar loop, which adds and compares
    the entries exactly as given.
    """
    if pivots is None and len(W) >= PACKED_CLOSURE_FROM and min(map(min, W)) >= 0:
        return _packed_closure(W)
    for k in range(len(W)) if pivots is None else pivots:
        row_k = W[k]
        for row in W:
            through = row[k]
            for j, via in enumerate(row_k):
                if through + via < row[j]:
                    row[j] = through + via
    return W


def _packed_closure(W: list[list[int]]) -> list[list[int]]:
    """Floyd's closure of a nonnegative square matrix on packed rows, in place.

    The packed closure of the module docstring; `raised` is P_k + ONES and
    `b` is S.  Row i reads d(i,k) from its own packed row.  Row k keeps
    its values at pivot k, as d(k,k) >= 0, so every row of a pivot reads
    the same P_k, as the scalar loop does.  d(i,k) ONES is a product, one
    pass over the packed row for an entry of one machine digit, as
    random_space's entries are.  The closed values are written back into
    W's own row lists.
    """
    n = len(W)
    size, shifts, ones, high = _packing(2 * max(map(max, W)), n)
    top = 8 * size - 1
    field = (1 << 8 * size) - 1
    packed = [sum(map(lshift, row, shifts)) for row in W]
    for k, s in enumerate(shifts):
        raised = packed[k] + ones
        for i, p in enumerate(packed):
            b = raised + (p >> s & field) * ones
            h = ((p | high) - b) & high
            if h:
                packed[i] = p ^ ((p ^ (b - ones)) & ((h << 1) - (h >> top)))
    for row, p in zip(W, packed):
        row[:] = [p >> s & field for s in shifts]
    return W


def min_plus(values: Sequence[int], rows: Sequence[Sequence[int]]) -> list[int]:
    """x -> min over t of values[t] + rows[t][x], for at least one t, on integers of one scale.

    With rows[t] = d(t, .) it is the McShane minimum (Bull. AMS 40, 1934),
    a minimum of 1-Lipschitz functions, so 1-Lipschitz itself.
    """
    return [min(c) for c in zip(*[[v + d for d in row] for v, row in zip(values, rows)])]


def steep_pair(values: Sequence[int], rows: Sequence[Sequence[int]]) -> tuple[int, int] | None:
    """The first (x, y) with values[y] - rows[x][y] > values[x], on integers of one scale.

    With rows[x] = d(x, .), the first pair where values is steeper than 1;
    None says it is 1-Lipschitz.  A row's first y is sought only if it fails.
    """
    for x, (v, row) in enumerate(zip(values, rows)):
        if max(map(sub, values, row)) > v:
            return x, next(y for y, (u, d) in enumerate(zip(values, row)) if u - d > v)
    return None


def validate_space(
    dist: Sequence[Sequence], base: int = 0, labels: Sequence | None = None
) -> PointedMetricSpace:
    """Validate a candidate distance matrix and build a space.

    Checks, in order: shape and rational entries (:func:`_integer_rows`),
    base index, label distinctness, symmetry, separation (zero distance iff
    equal points) and the triangle inequality.  The first violated axiom is
    reported with the witnessing pair or triple.
    """
    return _validated(labels, base, *_integer_rows(dist, as_fraction))


def _integer_rows(dist, parse) -> tuple[int, list[list[int]]]:
    """The unit and integer rows of a matrix of rationals, each distinct entry parsed once.

    Rows are read in order, so the first bad entry is the one `parse`
    reports.  A string or an int (not a bool) is keyed by itself, any other
    entry by its parsed (numerator, denominator): a bool would find the key
    1, and a Fraction key compares Fractions.  Each entry is read as the
    index of its key's distinct value.  A row that is not a list or tuple
    is a TypeError; then a row without n entries is a ValueError.  The
    distinct values are scaled once, by the lcm of their denominators,
    which keeps every equality and strict inequality of the metric axioms.
    """
    index, values, indexed = {}, [], []
    for row in dist:
        if not isinstance(row, (list, tuple)):
            raise TypeError("malformed matrix row")
        at = []
        for raw in row:
            if type(raw) is str or type(raw) is int:
                key = raw
            else:
                value = parse(raw)
                key = (value.numerator, value.denominator)
            i = index.get(key)
            if i is None:
                i = index[key] = len(values)
                values.append(parse(raw) if key is raw else value)
            at.append(i)
        indexed.append(at)
    n = len(indexed)
    for i, at in enumerate(indexed):
        if len(at) != n:
            raise ValueError(f"matrix is not square: row {i} has {len(at)} entries, expected {n}")
    unit, ints = scale_to_integers(values)
    return unit, [list(map(ints.__getitem__, at)) for at in indexed]


def _validated(labels, base: int, unit: int, rows: list[list[int]]) -> PointedMetricSpace:
    """Check base, labels and the metric axioms on integer rows, and build the space.

    The one checker, and the one constructor of a space: every builder
    hands it the distances times the positive `unit`.  After symmetry and
    separation, :func:`_first_loose_row` runs the packed check of the
    module docstring and returns the row i of the first unordered pair
    that fails, or n.  No ordered pair (i', j) with i' < i fails: its
    unordered pair comes before (i, j) and passed.  So the ordered scan
    starts at row i, and runs not at all on a metric.  Row i breaks
    d(i,k) <= d(i,j) + d(j,k) exactly where it is steeper than 1 at (j, k),
    so :func:`steep_pair` of row i reports the first triple in (i, j, k)
    order, as a scan of all triples would.  A negative entry d(i,j) makes
    (i, j, i) a violation.  The rows and unit are then divided by their gcd.
    The base is an index, an int but not a bool, as :meth:`resolve` reads one.
    """
    n = len(rows)
    if not isinstance(base, int) or isinstance(base, bool):
        raise TypeError(f"expected an int base index, got {type(base).__name__}")
    if not (0 <= base < n):
        raise BadBaseIndex(base, n)
    labels = tuple(str(x) for x in (range(n) if labels is None else labels))
    if len(labels) != n:
        raise ValueError(f"expected {n} labels, got {len(labels)}")
    if len(set(labels)) < n:
        raise DuplicateLabel(next(lab for i, lab in enumerate(labels) if lab in labels[:i]))

    # a mismatch left of the diagonal would have failed an earlier row
    for i, (row, column) in enumerate(zip(rows, zip(*rows))):
        if tuple(row) != column:
            raise AsymmetricDistance(i, next(j for j in range(n) if row[j] != column[j]))
    for i, row in enumerate(rows):
        if row[i] != 0 or row.count(0) > 1:
            raise ZeroDistanceDistinctPoints(i, i if row[i] else row.index(0, i + 1))
    for i in range(_first_loose_row(rows), n):
        pair = steep_pair(rows[i], rows)
        if pair is not None:
            raise TriangleViolation(i, *pair)
    g = gcd(unit, *map(gcd, *rows))
    if g > 1:
        rows = [[v // g for v in row] for row in rows]
    scaled = (unit // g, tuple(map(tuple, rows)))
    return PointedMetricSpace(labels=labels, base=base, scaled=scaled)


def _first_loose_row(rows: list[list[int]]) -> int:
    """The least i with some j > i and k where |d(i,k) - d(j,k)| > d(i,j); n if none.

    The packed check of the module docstring, on symmetric rows; `c` and
    `e` are its C and D.  A field is `size` whole bytes, so C, one value in
    every field, is that value's bytes repeated: one pass over the packed
    row, where a product with ONES takes one pass per machine digit of the
    value.
    """
    n = len(rows)
    size, shifts, _, high = _packing(3 * max(max(map(abs, row)) for row in rows), n)
    packed = [sum(map(lshift, row, shifts)) for row in rows]
    half = 1 << (8 * size - 1)
    for i, (row, p) in enumerate(zip(rows, packed)):
        for d, q in zip(row[i + 1 :], packed[i + 1 :]):
            c = int.from_bytes((d + half).to_bytes(size, "big") * n, "big")
            e = p - q
            if (c - e) & (c + e) & high != high:
                return i
    return n


def _packing(bound: int, n: int) -> tuple[int, range, int, int]:
    """The packed layout of n fields that hold integers of magnitude at most `bound`.

    Returns (size, shifts, ONES, HIGH): a field is `size` whole bytes, the
    least number with bound < 2^(w-1) for w = 8 size, so each field keeps
    its top bit as a guard; field k starts at bit shifts[k] = w k, so a row
    packs as sum(map(lshift, row, shifts)); ONES holds 1 in every field and
    HIGH the top bit of every field.
    """
    size = bound.bit_length() // 8 + 1
    w = 8 * size
    ones = int.from_bytes((1).to_bytes(size, "big") * n, "big")
    return size, range(0, n * w, w), ones, ones << (w - 1)


def line_space(n: int, step=Fraction(1)) -> PointedMetricSpace:
    """Equally spaced points on the real line with base at the left end."""
    step = as_fraction(step)
    rows = [[abs(i - j) * step.numerator for j in range(n)] for i in range(n)]
    return _validated(None, 0, step.denominator, rows)


def space_from_points(values: Sequence, base: int = 0) -> PointedMetricSpace:
    """Subspace of the rational line given by explicit coordinates."""
    unit, coords = scale_to_integers([as_fraction(v) for v in values])
    return _validated(None, base, unit, [[abs(a - b) for b in coords] for a in coords])
