"""Batched determinant evaluation and coefficient interpolation over F_p.

The randomized exact-cost matching machinery represents a cost matrix as a
per-edge vector of small "digits" (base cost, count of one special class,
count of another). Each edge also gets a random nonzero field scalar. The
determinant of the matrix whose (i, j) entry is

    scalar[i,j] * x^d0 * y^d1 * z^d2

is a polynomial whose (alpha, k, l) coefficient is a signed sum over the
permutations with exactly that digit signature. Distinct permutations
contribute distinct scalar monomials, so the coefficient is the zero
polynomial exactly when no such permutation exists; at random scalars a
nonzero value certifies existence, and a zero value is wrong with
probability at most n/p per trial (Schwartz-Zippel).

The largest monomial is factored out of every row and then every column,
which shifts the targets by a constant offset and bounds each axis's degree
by both the sum of the row maxima and the sum of the column maxima. With d
one more than that bound, the determinant is evaluated on the grid of points
1..d per axis, in chunks, and the coefficients are recovered by inverting
the Vandermonde systems along each axis. Point 0 is left out: it zeroes
every entry with a positive digit and would often make the matrix singular.

Witness extraction needs one row's worth of coefficients at once. Expanding
along row i, det = sum_j scalar[i,j] x^d_ij C_ij, where the cofactor C_ij
collects the permutations that map i to j. ``det_batch`` with ``row=i``
eliminates each matrix against the right-hand side e_i, and back
substitution yields the whole cofactor row det(M) (M^-1)_ji from that one
elimination. ``row_coefficients`` contracts each chunk of these terms with
the target's Vandermonde-inverse weights as it goes, so it keeps n running
sums and never a grid of matrices. At a grid point where M is singular there
is no inverse, and the cofactors there are computed as minors through
``det_batch``. That is rare: no point is 0, so when M has a perfect matching
its determinant at a point is a nonzero polynomial of degree n in the
scalars, which vanishes with probability at most n/p. A target on the edge of
an axis's degree window (its lowest or highest coefficient, as the cheapest
and dearest signatures often are) needs no points along that axis at all;
``row_coefficients`` explains the substitution.

The prime is kept below 2^31 so products of two residues fit in int64 and
everything vectorizes under numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FieldConfigError

PRIME = (1 << 31) - 1

_MAX_GRID_POINTS = 2_000_000


def _inverse_vec(x: np.ndarray) -> np.ndarray:
    """Elementwise inverse mod PRIME of a vector of nonzero residues.

    Montgomery's batch trick on a product tree: multiply neighbours pairwise
    up to one product, invert that with a single exponentiation, and
    multiply back down, each inverse being its parent's times its sibling.
    """
    size = 1 << max(0, x.size - 1).bit_length()
    levels = [np.concatenate([x % PRIME, np.ones(size - x.size, dtype=np.int64)])]
    while levels[-1].size > 1:
        pairs = levels[-1].reshape(-1, 2)
        levels.append((pairs[:, 0] * pairs[:, 1]) % PRIME)
    inv = np.array([pow(int(levels[-1][0]), PRIME - 2, PRIME)], dtype=np.int64)
    for v in reversed(levels[:-1]):
        inv = ((inv[:, None] * v.reshape(-1, 2)[:, ::-1]) % PRIME).reshape(-1)
    return inv[: x.size]


def det_batch(mats: np.ndarray, row: int | None = None) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Determinants mod PRIME of a (B, n, n) int64 batch, via Gaussian elimination.

    With ``row=i`` the matrices are eliminated against the right-hand side
    e_i, and the result is ``(det, cof)`` with ``cof[b, j]`` the (i, j)
    cofactor of ``mats[b]``, from back substitution as det * (M^-1)_ji. A
    singular matrix has no inverse; its cofactors are computed as minors.
    """
    a = mats % PRIME
    batch, n, _ = a.shape
    if row is not None:
        rhs = np.zeros((batch, n, 1), dtype=np.int64)
        rhs[:, row] = 1
        a = np.concatenate([a, rhs], axis=2)
        inverses = np.empty((batch, n), dtype=np.int64)
    det = np.ones(batch, dtype=np.int64)
    idx = np.arange(batch)
    for k in range(n):
        if not a[:, k, k].all():
            # Swap up the first nonzero entry below a zero pivot, if any.
            nz = a[:, k:, k] != 0
            pivot_offset = np.argmax(nz, axis=1)
            has_pivot = nz[idx, pivot_offset]
            det = np.where(has_pivot, det, 0)
            pivot_row = k + pivot_offset
            swap = has_pivot & (pivot_row != k)
            if swap.any():
                sw = idx[swap]
                rows = pivot_row[swap]
                tmp = a[sw, k, :].copy()
                a[sw, k, :] = a[sw, rows, :]
                a[sw, rows, :] = tmp
                det[sw] = (-det[sw]) % PRIME
        pivot = a[:, k, k]
        safe_pivot = np.where(pivot == 0, 1, pivot)
        det = (det * pivot) % PRIME
        if k + 1 < n or row is not None:
            inv = _inverse_vec(safe_pivot)
        if row is not None:
            inverses[:, k] = inv
        if k + 1 < n:
            factors = (a[:, k + 1 :, k] * inv[:, None]) % PRIME
            # Column k below the pivot is never read again, so it is left as is.
            block = a[:, k + 1 :, k + 1 :]
            block[...] = (block - factors[:, :, None] * a[:, k : k + 1, k + 1 :]) % PRIME
    if row is None:
        return det
    # Back substitution: a is upper triangular with the transformed e_i in column n.
    b = a[:, :, n]
    solution = np.empty((batch, n), dtype=np.int64)
    for k in range(n - 1, -1, -1):
        solution[:, k] = (b[:, k] * inverses[:, k]) % PRIME
        b[:, :k] = (b[:, :k] - a[:, :k, k] * solution[:, k : k + 1]) % PRIME
    cof = (solution * det[:, None]) % PRIME
    singular = np.flatnonzero(det == 0)
    if singular.size:
        cof[singular] = _minor_row(mats[singular] % PRIME, row)
    return det, cof


def _minor_row(mats: np.ndarray, row: int) -> np.ndarray:
    """Cofactors (row, j) of a (B, n, n) batch, each as a signed (n-1) x (n-1) determinant."""
    batch, n, _ = mats.shape
    rest = np.delete(mats, row, axis=1)
    minors = np.stack([np.delete(rest, j, axis=2) for j in range(n)], axis=1)
    dets = det_batch(minors.reshape(batch * n, n - 1, n - 1)).reshape(batch, n)
    odd = (row + np.arange(n)) % 2 == 1
    return np.where(odd, (-dets) % PRIME, dets)


def _vandermonde_inverse(npoints: int) -> np.ndarray:
    """Inverse mod PRIME of the Vandermonde matrix on points 1..npoints."""
    if npoints >= PRIME:
        raise FieldConfigError("more interpolation points than field elements")
    pts = np.arange(1, npoints + 1, dtype=np.int64)
    # V[p][e] = p^e
    v = np.ones((npoints, npoints), dtype=np.int64)
    for e in range(1, npoints):
        v[:, e] = (v[:, e - 1] * pts) % PRIME
    # Gauss-Jordan inversion over F_p (small systems only).
    aug = np.concatenate([v, np.eye(npoints, dtype=np.int64)], axis=1) % PRIME
    for k in range(npoints):
        piv = k + int(np.argmax(aug[k:, k] != 0))
        if aug[piv, k] == 0:
            raise FieldConfigError("singular Vandermonde system")
        if piv != k:
            aug[[k, piv]] = aug[[piv, k]]
        inv = pow(int(aug[k, k]), PRIME - 2, PRIME)
        aug[k] = (aug[k] * inv) % PRIME
        for r in range(npoints):
            if r != k and aug[r, k]:
                aug[r] = (aug[r] - aug[r, k] * aug[k]) % PRIME
    return aug[:, npoints:] % PRIME


_VINV_CACHE: dict[int, np.ndarray] = {}


def vandermonde_inverse(npoints: int) -> np.ndarray:
    got = _VINV_CACHE.get(npoints)
    if got is None:
        got = _vandermonde_inverse(npoints)
        _VINV_CACHE[npoints] = got
    return got


def _mod_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a @ b) mod PRIME with overflow-safe accumulation (small inner dims)."""
    out = np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
    for k in range(a.shape[-1]):
        out = (out + a[..., k : k + 1] * b[k]) % PRIME
    return out


def _factor(digits: np.ndarray) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]:
    """Factor the row minima, then the column minima, out of an (n, n, naxes) digit array.

    Returns the reduced digits, the factored-out digit sums (every
    permutation's sums exceed the reduced ones by exactly this offset) and
    the grid size per axis: one more than the smaller of the row-maxima and
    column-maxima sums, which bound every permutation's reduced sum.
    """
    rowmin = digits.min(axis=1, keepdims=True)
    digits = digits - rowmin
    colmin = digits.min(axis=0, keepdims=True)
    digits = digits - colmin
    offset = tuple(int(x) for x in rowmin.sum(axis=(0, 1)) + colmin.sum(axis=(0, 1)))
    bound = np.minimum(digits.max(axis=1).sum(axis=0), digits.max(axis=0).sum(axis=0))
    return digits, offset, tuple(int(b) + 1 for b in bound)


def _grid(digits: np.ndarray, scalars: np.ndarray, dims: tuple[int, ...]):
    """Yield ``(points, mats)`` over the grid 1..d per axis, in C order, chunk by chunk.

    ``mats[b]`` is the matrix ``scalars * x^digits`` evaluated at ``points[b]``.
    """
    n, _, naxes = digits.shape
    ngrid = math.prod(dims)
    if ngrid > _MAX_GRID_POINTS:
        raise FieldConfigError(f"interpolation grid of {ngrid} points is too large")
    # Entries share few distinct digit vectors: evaluate each such monomial once per point.
    monos, which = np.unique(digits.reshape(n * n, naxes), axis=0, return_inverse=True)
    which = which.reshape(n, n)
    chunk = max(1, min(ngrid, 4096 * 49 // (n * n) + 1))
    for start in range(0, ngrid, chunk):
        flat = np.arange(start, min(start + chunk, ngrid))
        pts = np.stack(np.unravel_index(flat, dims), axis=1).astype(np.int64) + 1  # (c, naxes)
        values = np.ones((pts.shape[0], monos.shape[0]), dtype=np.int64)
        for axis in range(naxes):
            if dims[axis] == 1:
                continue
            # point value ** digit, tabulated per chunk
            maxdig = int(monos[:, axis].max())
            pows = np.ones((pts.shape[0], maxdig + 1), dtype=np.int64)
            for e in range(1, maxdig + 1):
                pows[:, e] = (pows[:, e - 1] * pts[:, axis]) % PRIME
            values = (values * pows[:, monos[:, axis]]) % PRIME
        yield pts, (scalars * values[:, which]) % PRIME


class SignatureCube:
    """Coefficient array of the digit-generating determinant polynomial.

    ``cube[alpha, k, l]`` is nonzero only if some perfect matching of the
    digitized matrix has digit sums ``offset + (alpha, k, l)``; nonzero is a
    certificate, zero is correct with high probability.
    """

    def __init__(self, digits: np.ndarray, scalars: np.ndarray):
        digits = np.asarray(digits, dtype=np.int64)
        n = digits.shape[0]
        if digits.shape[:2] != (n, n):
            raise ValueError("digits must be (n, n, naxes)")
        self.n = n
        self.naxes = digits.shape[2]
        self.digits, self.offset, self.dims = _factor(digits)
        self.scalars = np.asarray(scalars, dtype=np.int64) % PRIME
        self.cube = self._interpolate()

    def _interpolate(self) -> np.ndarray:
        values = [det_batch(mats) for _, mats in _grid(self.digits, self.scalars, self.dims)]
        val = np.concatenate(values).reshape(self.dims)
        # Invert the Vandermonde system along each axis in turn.
        for axis, d in enumerate(self.dims):
            if d == 1:
                continue
            vinv = vandermonde_inverse(d)
            moved = np.moveaxis(val, axis, 0).reshape(d, -1)
            moved = _mod_matmul(vinv, moved)
            val = np.moveaxis(moved.reshape((d,) + val.shape[:axis] + val.shape[axis + 1 :]), 0, axis)
        return val

    def coefficient(self, target: tuple[int, ...]) -> int:
        """Coefficient at absolute digit sums ``target`` (0 if out of range)."""
        idx = []
        for axis in range(self.naxes):
            t = target[axis] - self.offset[axis]
            if t < 0 or t >= self.dims[axis]:
                return 0
            idx.append(t)
        return int(self.cube[tuple(idx)])

    def support(self) -> set[tuple[int, ...]]:
        """All absolute digit-sum signatures with nonzero coefficient."""
        out = set()
        for idx in np.argwhere(self.cube != 0):
            out.add(tuple(int(i) + o for i, o in zip(idx, self.offset)))
        return out


def row_coefficients(digits: np.ndarray, scalars: np.ndarray, target: tuple[int, ...]) -> np.ndarray:
    """Coefficient at digit sums ``target`` of each term of the expansion along row 0.

    Entry j is the ``target`` coefficient of scalar[0,j] x^d_0j C_0j, the
    part of the determinant made of the permutations that map row 0 to
    column j. It is scalar[0,j] times, up to sign, the coefficient that
    ``coefficient_at`` finds at ``target - digits[0, j]`` on the (0, j)
    minor, so the two are zero together; the entries sum to the
    determinant's own ``target`` coefficient. One cofactor pass over one
    grid computes all n.

    A target on the edge of an axis's degree window needs no points along
    that axis. Its lowest coefficient is the determinant at x = 0, where
    only the entries with digit 0 remain. Its highest, when the bound is the
    sum of the row maxima, is the lowest of x^bound det(M(1/x)), whose row r
    is row r of M(1/x) times x^rowmax_r, so at x = 0 only the entries at
    their row's maximum remain (column maxima alike). Either way the axis
    drops out and the other entries are zeroed.
    """
    digits = np.asarray(digits, dtype=np.int64)
    reduced, offset, dims = _factor(digits)
    out = np.zeros(digits.shape[0], dtype=np.int64)
    shifted = [t - o for t, o in zip(target, offset)]
    if any(t < 0 or t >= d for t, d in zip(shifted, dims)):
        return out
    kept = np.ones(digits.shape[:2], dtype=bool)
    dims = list(dims)
    for axis, (t, d) in enumerate(zip(shifted, dims)):
        if d == 1 or 0 < t < d - 1:
            continue
        axis_digits = reduced[:, :, axis]
        if t == 0:
            kept &= axis_digits == 0
        elif axis_digits.max(axis=1).sum() == t:
            kept &= axis_digits == axis_digits.max(axis=1, keepdims=True)
        else:
            kept &= axis_digits == axis_digits.max(axis=0, keepdims=True)
        axis_digits[...] = 0
        shifted[axis], dims[axis] = 0, 1
    scalars = np.where(kept, np.asarray(scalars, dtype=np.int64) % PRIME, 0)
    # Row t of the inverse Vandermonde matrix turns values at points 1..d into the x^t coefficient.
    weights = [vandermonde_inverse(d)[t] for d, t in zip(dims, shifted)]
    for pts, mats in _grid(reduced, scalars, tuple(dims)):
        weight = np.ones(pts.shape[0], dtype=np.int64)
        for axis, w in enumerate(weights):
            weight = (weight * w[pts[:, axis] - 1]) % PRIME
        _, cof = det_batch(mats, row=0)
        terms = (mats[:, 0, :] * cof) % PRIME
        out = (out + ((terms * weight[:, None]) % PRIME).sum(axis=0)) % PRIME
    return out


def coefficient_at(digits: np.ndarray, scalars: np.ndarray, target: tuple[int, ...]) -> int:
    """One-shot coefficient lookup (builds a full cube for the submatrix)."""
    if digits.shape[0] == 0:
        return 1 if all(t == 0 for t in target) else 0
    cube = SignatureCube(digits, scalars)
    return cube.coefficient(target)
