"""The randomized exact-cost matching engine: determinant interpolation over F_p.

``matching``'s entry points call ``cost_witness``, ``signature_witness``
and ``support`` in costs and signatures; every digit lives here. A matrix
is a per-edge vector of small "digits": its cost alone, or the signature
digits of ``_signature_digits``. Each edge also gets a random nonzero field
scalar (``_trial_scalars``). The determinant of the matrix whose (i, j)
entry is

    scalar[i,j] * x^d0 * y^d1 * z^d2

is a polynomial whose (alpha, k, l) coefficient is a signed sum over the
permutations with exactly that digit signature. Distinct permutations
contribute distinct scalar monomials, so the coefficient is the zero
polynomial exactly when no such permutation exists; at random scalars a
nonzero value certifies existence, and a zero value is wrong with
probability at most n/p per trial (Schwartz-Zippel).

The largest monomial is factored out of every row and then every column,
which shifts the targets by a constant offset. Each axis's remaining digits
are then divided by their gcd g, the axis's stride: every permutation's
digit sum on the axis is a multiple of g, so the determinant is a polynomial
in x^g, and the grid needs 1/g of the points along that axis (the
no-side-edges double stars of the ``solve`` benchmark have even cost digits,
so their cost axis keeps about half its points). A target off the residue
class has no permutation, nor has one outside the degree window, and
``_search`` answers either before it builds a cube. Each axis's degree, in
x^g, is bounded by both the sum of the row maxima and the sum of the column
maxima of the divided digits. With d one more than that bound, the
determinant is evaluated on the grid of points 1..d per axis, in chunks, and
the coefficients are recovered by inverting the Vandermonde systems along
each axis. They are the same field elements a grid in x would give. Point 0 is left out: it zeroes every entry with a
positive digit and would often make the matrix singular.

Each trial's scalars give one cube, evaluated on its own: a
``SignatureCube`` factors its digits, walks its grid and solves its
Vandermonde systems. Trials share their digits but not their scalars, so a
query over several trials builds one cube per trial, and ``_trial_cube``
caches each by its digits, seed and trial: later targets on the same
digits and seed, and a witness search after ``signature_support``, read
the cubes already built.

Witness extraction fixes the rows in order, each to the first column that
keeps the target reachable, and needs one row's worth of coefficients at a
time. Expanding along row i, det = sum_j scalar[i,j] x^d_ij C_ij, where the
cofactor C_ij collects the permutations that map i to j, and C_ij =
det(M) (M^-1)_ji. ``LiveMinor`` sets up once per extraction: it factors the
digits, trims the axes whose target sits on the edge of its window (the
lowest or highest coefficient, as the cheapest and dearest signatures often
are; ``_window`` explains the substitution), and inverts the matrix at
every point of one grid with ``det_batch(..., inverse=True)``. Row i's
shares contract its cofactors with the target's Vandermonde-inverse
weights. Fixing row i to column j leaves the (i, j) minor, whose
determinant and inverse follow from the parent's by a rank-one update
(Rabin and Vazirani's matching by one inversion), so no row pays for a new
elimination: the set-up's reduced digits bound every minor's degrees, so its
grid serves every row, and its trims hold for every minor. A point where
the live minor is singular has no inverse to update, so the extraction gives
up, as it does when every share is zero, and the caller retries with fresh
scalars. No point is 0, so at each point the determinant of a live minor on
the lexicographically first path to the target is a nonzero polynomial of
degree at most its size in the scalars: over the q minors of that path at G
points, and their shares, a give-up has probability at most
(G + 1) q (q + 1) / (2p) (Schwartz-Zippel).

The prime is kept below 2^31 so products of two residues fit in int64 and
everything vectorizes under numpy. Most batches are small, so an
elimination step's fixed cost matters as much as its arithmetic, and no
step inverts anything: the elimination is fraction-free (Bareiss's update,
without his exact division), and one ``_inverse_vec`` call at the end
inverts the determinant's denominator and, for an inverse, the pivots
(Montgomery's batch trick on a product tree: one modular exponentiation).
``LiveMinor.take`` inverts its pivot at every grid point the same way,
once per take. A scale carried through the takes instead would not save
that inversion: a row's shares sum over the grid points, so each point's
scale would have to be divided out before the sum, one inversion per row
all the same. Each block update is reduced by floor division, which numpy
does by a multiply and a shift (Granlund and Montgomery's division by
invariant integers), instead of its much slower ``%``.
"""

from __future__ import annotations

import collections
import functools
import math
from typing import Sequence

import numpy as np

from .errors import FieldConfigError

PRIME = (1 << 31) - 1

_MAX_GRID_POINTS = 2_000_000


def _check_dense(q: int) -> None:
    """Refuse a q x q matrix with more entries than ``_MAX_GRID_POINTS``.

    The engine reads every cell of a dense digit array, so it is checked
    before that array exists: at q = 10,000 the signature digits alone would
    take 2.4 GB (q² cells of three int64 digits).
    """
    if q * q > _MAX_GRID_POINTS:
        raise FieldConfigError(f"the F_p engine takes at most {_MAX_GRID_POINTS} matrix entries, got q={q}")


def _signature_digits(costs: Sequence[Sequence[int]], touchable_mask: Sequence[Sequence[bool]]) -> np.ndarray:
    """Per-edge digits (4 - c, is-3, is-touchable-2) of a 0..3 cost matrix.

    A perfect matching of cost x with k 3-edges and l touchable 2-edges has
    digit sums (4q - x, k, l). q > 1414 is refused first (``_check_dense``).

    The cost digit is 4 - c, not c. Both find the same matchings, but after
    ``_factor`` the blow-ups of the ``solve`` benchmark keep a shorter cost
    axis under 4 - c, all even, which the axis's stride halves. Under c,
    one seed-1 ``solve`` pass, measured when it still swept, grew its box
    grids from 8,438 to 18,994 points; the ``uw-rt-ins-ntp`` slots at seeds
    1-3 and solver seeds 0 and 11 grew cube points from 39,504 to 82,764 and
    ``LiveMinor`` points from 12,030 to 54,320, for identical Solutions in
    4.5 s against 1.6 s.
    """
    _check_dense(len(costs))
    c = np.array(costs, dtype=np.int64)
    if c.max() > 3:
        raise ValueError("signature queries expect costs in 0..3")
    touchable_2 = (c == 2) & np.array(touchable_mask, dtype=bool)
    return np.stack([4 - c, c == 3, touchable_2], axis=2).astype(np.int64)


def _trial_scalars(seed: int, trial: int, q: int) -> np.ndarray:
    """The random nonzero field scalars of trial ``trial`` at ``seed``, one per cell of a q x q matrix."""
    rng = np.random.default_rng((seed, trial, q))
    return rng.integers(1, PRIME, size=(q, q), dtype=np.int64)


def _inverse_vec(x: np.ndarray) -> np.ndarray:
    """Elementwise inverse mod PRIME of a vector of residues; a 0 is taken as 1.

    Montgomery's trick on a product tree: the vector, padded with ones to a
    power of two, is multiplied pairwise up to one product, which one
    exponentiation inverts, and back down, each inverse being its parent's
    times its sibling. Every level is one numpy pass, whatever the size.
    """
    size = 1 << (x.size - 1).bit_length()
    levels = [np.concatenate([np.where(x == 0, 1, x), np.ones(size - x.size, dtype=np.int64)])]
    while levels[-1].size > 1:
        pairs = levels[-1].reshape(-1, 2)
        levels.append((pairs[:, 0] * pairs[:, 1]) % PRIME)
    inv = np.array([pow(int(levels[-1][0]), PRIME - 2, PRIME)], dtype=np.int64)
    for v in reversed(levels[:-1]):
        inv = ((inv[:, None] * v.reshape(-1, 2)[:, ::-1]) % PRIME).reshape(-1)
    return inv[: x.size]


def _mod_prime(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``t mod PRIME`` into ``out`` (another array of t's shape) and return it.

    As t - (t // PRIME) * PRIME, which floor division makes equal to numpy's
    ``%`` for negative ``t`` too, and faster (see the module docstring).
    """
    np.floor_divide(t, PRIME, out=out)
    out *= PRIME
    return np.subtract(t, out, out=out)


def det_batch(mats: np.ndarray, inverse: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Determinants mod PRIME of a (B, n, n) int64 batch, by fraction-free elimination.

    With ``inverse=True`` the right-hand side is the identity, and the result
    is ``(det, inv)`` with ``inv[:, :, b]`` the inverse of ``mats[b]``: batch
    last, as the elimination keeps it. A singular matrix is flagged by its
    zero determinant, and its ``inv`` slice is zero.

    The batch is the last axis of the working array ``a``, so every
    elementwise pass runs over whole rows of the batch at once. Step k
    inverts nothing. With pivot p_k it updates each later row i as
    p_k * row_i - a_ik * row_k: Bareiss's update, without his exact
    division. Both products stay below 2^62, so int64 holds them. The block
    is scaled in place, and the update is reduced into the front of ``a``'s
    own buffer, so ``a`` shrinks to rows and columns k+1.. and stays
    contiguous.

    Before step k every remaining row is P_k = p_0 ... p_{k-1} times the row
    Gaussian elimination would hold. So the true pivots are p_k / P_k, and
    the determinant is sign * prod p_k / prod_{k>=1} P_k.

    For the inverse each pivot row is kept for the back substitution, which
    divides row k by p_k and so cancels its scale. The identity is carried
    in pivot order, which keeps the block n wide instead of up to 2n (large
    grids outgrow the cache). Before step k a row's right-hand side is P_k
    times its own unit vector plus multiples of the first k pivot rows'
    ones, so k columns hold it. Each step appends one column, -a_ik * P_k,
    as it drops an eliminated column. The columns are put back in row order
    at the end.

    One ``_inverse_vec`` call inverts the determinant's denominator and, for
    the inverse, the n pivots.
    """
    batch, n, _ = mats.shape
    a = np.empty((n, n, batch), dtype=np.int64)
    _mod_prime(mats.transpose(1, 2, 0), a)
    if inverse:
        upper = np.empty((n, n, batch), dtype=np.int64)
        lower = np.zeros((n, n, batch), dtype=np.int64)
        # order: the input row each row of a came from; perm[k]: step k's pivot row.
        order = np.repeat(np.arange(n)[:, None], batch, axis=1)
        perm = np.empty((n, batch), dtype=np.int64)
    spare = np.empty(max(0, n - 1) * (n - 1 + inverse) * batch, dtype=np.int64)
    # scale: P_k, then prod p_k after the last step; denominator: sign * prod_{k>=1} P_k.
    scale = np.ones(batch, dtype=np.int64)
    denominator = np.ones(batch, dtype=np.int64)
    for k in range(n):
        # a holds rows and columns k.. of the partly eliminated matrices, then
        # the first k pivot-order columns of the right-hand side, all times P_k.
        pivot = a[0, 0]
        if not pivot.all():
            # Swap up the first nonzero entry below a zero pivot. A matrix with
            # none (argmax 0) keeps its zero pivot, which zeroes its determinant.
            pivot_offset = np.argmax(a[:, 0] != 0, axis=0)
            sw = np.flatnonzero(pivot_offset)
            if sw.size:
                rows = pivot_offset[sw]
                tmp = a[0, :, sw].copy()
                a[0, :, sw] = a[rows, :, sw]
                a[rows, :, sw] = tmp
                denominator[sw] = (-denominator[sw]) % PRIME
                if inverse:
                    tmp = order[0, sw]
                    order[0, sw] = order[rows, sw]
                    order[rows, sw] = tmp
        # P_k for this step's rows, P_{k+1} for the next step's.
        previous, scale = scale, (scale * pivot) % PRIME
        if inverse:
            upper[k, k:] = a[0, : n - k]
            lower[k, :k] = a[0, n - k :]
            lower[k, k] = previous
            perm[k] = order[0]
            order = order[1:]
        if k + 1 < n:
            denominator = (denominator * scale) % PRIME
            # Column k below the pivot is never read again, so it is dropped.
            kept = a.shape[1] - 1
            shape = (n - k - 1, kept + inverse, batch)
            size = math.prod(shape)
            t = spare[:size].reshape(shape)
            block = a[1:, 1:]
            block *= pivot
            np.multiply(a[1:, :1], a[:1, 1:], out=t[:, :kept])
            np.subtract(block, t[:, :kept], out=t[:, :kept])
            if inverse:
                np.multiply(a[1:, 0], -previous, out=t[:, kept])
            a = _mod_prime(t, a.reshape(-1)[:size].reshape(shape))
    if not inverse:
        return (scale * _inverse_vec(denominator)) % PRIME
    # Rows 0..n-1: the pivots' inverses; row n: the denominator's.
    pivots = upper[np.arange(n), np.arange(n)].reshape(-1)
    inverted = _inverse_vec(np.concatenate([pivots, denominator])).reshape(n + 1, batch)
    det = (scale * inverted[n]) % PRIME
    # Back substitution against the transformed identity.
    solution = np.empty(lower.shape, dtype=np.int64)
    for k in range(n - 1, -1, -1):
        _mod_prime(lower[k] * inverted[k], solution[k])
        if k:
            _mod_prime(lower[:k] - upper[:k, k, None] * solution[k], lower[:k])
    solution[:, :, det == 0] = 0
    if (perm != np.arange(n)[:, None]).any():
        # Column j belongs to the j-th pivot row.
        out = np.empty_like(solution)
        np.put_along_axis(out, np.broadcast_to(perm, solution.shape), solution, axis=1)
        solution = out
    return det, solution


def vandermonde_inverse(npoints: int) -> np.ndarray:
    """Inverse mod PRIME of the Vandermonde matrix on points 1..npoints, read-only
    because one array is shared by every caller.

    Cached per field: the key is the ``PRIME`` in force at the call.
    """
    return _vandermonde_inverse(npoints, PRIME)


@functools.cache
def _vandermonde_inverse(npoints: int, prime: int) -> np.ndarray:
    if npoints >= prime:
        raise FieldConfigError("more interpolation points than field elements")
    pts = np.arange(1, npoints + 1, dtype=np.int64)
    # V[p][e] = p^e: distinct points below the prime, so V is invertible.
    v = np.ones((npoints, npoints), dtype=np.int64)
    for e in range(1, npoints):
        v[:, e] = (v[:, e - 1] * pts) % prime
    inv = det_batch(v[None], inverse=True)[1][:, :, 0]
    inv.flags.writeable = False
    return inv


def _mod_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a @ b) mod PRIME with overflow-safe accumulation (small inner dims)."""
    out = np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
    for k in range(a.shape[-1]):
        out = (out + a[..., k : k + 1] * b[k]) % PRIME
    return out


def _factor(digits: np.ndarray) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Factor the row minima, then the column minima, out of an (n, n, naxes)
    digit array, then divide each axis by its common factor.

    Returns ``(reduced, offset, dims, stride)``: the reduced digits; the
    factored-out digit sums; the grid size per axis; and the stride per axis,
    the gcd of that axis's digits after the minima are out (1 where they are
    all 0), by which ``reduced`` is divided. Every permutation's digit sums
    are exactly ``offset + stride * s``, where s is its sum of ``reduced``:
    the determinant is a polynomial in x^stride, so the grid needs only
    ``dims`` points along the axis, one more than the smaller of the
    row-maxima and column-maxima sums of ``reduced``, which bound s. A
    target off its axis's residue class has no permutation.
    """
    rowmin = digits.min(axis=1, keepdims=True)
    digits = digits - rowmin
    colmin = digits.min(axis=0, keepdims=True)
    digits = digits - colmin
    offset = rowmin.sum(axis=(0, 1)) + colmin.sum(axis=(0, 1))
    stride = np.maximum(np.gcd.reduce(digits.reshape(-1, digits.shape[2]), axis=0), 1)
    digits //= stride
    bound = np.minimum(digits.max(axis=1).sum(axis=0), digits.max(axis=0).sum(axis=0))
    return digits, tuple(map(int, offset)), tuple(int(b) + 1 for b in bound), tuple(int(g) for g in stride)


def _grid_index(target: tuple, offset: tuple, dims: tuple, stride: tuple) -> tuple[int, ...] | None:
    """The grid index s of the digit sums ``target = offset + stride * s`` under
    ``_factor``'s offset, dims and stride, or None when ``target`` is off an
    axis's residue class or outside its window 0..d-1: no permutation has it."""
    index = []
    for t, o, d, g in zip(target, offset, dims, stride):
        s, off = divmod(t - o, g)
        if off or not 0 <= s < d:
            return None
        index.append(s)
    return tuple(index)


def _grid(digits: np.ndarray, scalars: np.ndarray, dims: tuple[int, ...]):
    """Yield ``(points, mats)`` over the grid 1..d per axis, in C order, chunk by chunk.

    ``mats[b]`` is the matrix ``scalars * x^digits`` evaluated at ``points[b]``.
    """
    n, _, naxes = digits.shape
    ngrid = math.prod(dims)
    if ngrid > _MAX_GRID_POINTS:
        raise FieldConfigError(f"interpolation grid of {ngrid} points is too large")
    # Entries share few distinct digit vectors: evaluate each such monomial once per point.
    # Each vector is keyed by one mixed-radix integer, axis 0 most significant, so
    # sorting the keys sorts the vectors, and a 1-D unique stands in for a row-wise one.
    vectors = digits.reshape(n * n, naxes)
    key = np.zeros(n * n, dtype=np.int64)
    for axis in range(naxes):
        key = key * (int(vectors[:, axis].max()) + 1) + vectors[:, axis]
    _, first, which = np.unique(key, return_index=True, return_inverse=True)
    monos = vectors[first]
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
        mats = values[:, which] * scalars
        yield pts, _mod_prime(mats, np.empty_like(mats))


class SignatureCube:
    """Coefficient array of the digit-generating determinant polynomial.

    ``cube[s]`` is the coefficient of the digit sums ``offset + stride * s``.
    It is nonzero only if some perfect matching of the digitized matrix has
    those digit sums; nonzero is a certificate, zero is correct with high
    probability. ``coefficient`` and ``support`` speak digit sums.
    """

    def __init__(self, digits: np.ndarray, scalars: np.ndarray):
        """The cube of ``digits`` at ``scalars``: ``_factor``, the determinants
        at every point of its grid, then the Vandermonde system along each axis."""
        digits = np.asarray(digits, dtype=np.int64)
        n = digits.shape[0]
        if digits.shape[:2] != (n, n):
            raise ValueError("digits must be (n, n, naxes)")
        self.n = n
        self.scalars = np.asarray(scalars, dtype=np.int64) % PRIME
        reduced, self.offset, self.dims, self.stride = _factor(digits)
        val = np.concatenate([det_batch(mats) for _, mats in _grid(reduced, self.scalars, self.dims)])
        val = val.reshape(self.dims)
        for axis, d in enumerate(self.dims):
            if d == 1:
                continue
            moved = _mod_matmul(vandermonde_inverse(d), np.moveaxis(val, axis, 0).reshape(d, -1))
            val = np.moveaxis(moved.reshape((d,) + val.shape[:axis] + val.shape[axis + 1 :]), 0, axis)
        self.cube = val

    def coefficient(self, target: tuple[int, ...]) -> int:
        """Coefficient at absolute digit sums ``target`` (0 if out of range or
        off an axis's residue class)."""
        index = _grid_index(target, self.offset, self.dims, self.stride)
        return 0 if index is None else int(self.cube[index])

    def support(self) -> set[tuple[int, ...]]:
        """All absolute digit-sum signatures with nonzero coefficient."""
        return set(map(tuple, (np.argwhere(self.cube != 0) * self.stride + self.offset).tolist()))


# Signature cubes by (digits, shape, seed, prime, trial), least recently used first.
_CUBES: collections.OrderedDict[tuple, SignatureCube] = collections.OrderedDict()
_CUBE_CACHE_SIZE = 64


def _trial_cube(digits: np.ndarray, seed: int, trial: int) -> SignatureCube:
    """The signature cube of ``digits`` at the scalars of (seed, trial).

    Cubes are shared across targets and calls: queries against the same
    digits and seed re-use the same random scalars, so sweeping many
    targets costs one interpolation per trial, and a witness query after a
    ``signature_support`` call starts on its cubes. The key holds the
    ``PRIME`` in force at the call, so a cube is never reused over another
    field.
    """
    key = (digits.tobytes(), digits.shape, seed, PRIME, trial)
    if key not in _CUBES:
        _CUBES[key] = SignatureCube(digits, _trial_scalars(seed, trial, digits.shape[0]))
        if len(_CUBES) > _CUBE_CACHE_SIZE:
            _CUBES.popitem(last=False)
    _CUBES.move_to_end(key)
    return _CUBES[key]


def _window(digits: np.ndarray, scalars: np.ndarray, target: tuple[int, ...]):
    """Factor ``digits`` and trim every axis whose ``target`` is on its window's edge.

    Returns ``(reduced, scalars, dims, shifted)``: a problem whose
    coefficient at ``shifted`` on the grid ``dims`` equals the original's at
    ``target``, or None when ``target`` lies outside the degree window or
    off an axis's residue class (see ``_factor``).

    A target on the edge of an axis's degree window needs no points along
    that axis. Its lowest coefficient is the determinant at x = 0, where
    only the entries with digit 0 remain. Its highest, when the bound is the
    sum of the row maxima, is the lowest of x^bound det(M(1/x)), whose row r
    is row r of M(1/x) times x^rowmax_r, so at x = 0 only the entries at
    their row's maximum remain (column maxima alike). Either way the axis
    drops out and the other entries are zeroed. Every permutation that
    reaches the target uses kept entries only, so a trim also holds for
    every minor on the way to it.
    """
    reduced, offset, dims, stride = _factor(digits)
    index = _grid_index(target, offset, dims, stride)
    if index is None:
        return None
    shifted = list(index)
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
    return reduced, np.where(kept, scalars % PRIME, 0), tuple(dims), shifted


class LiveMinor:
    """The live minor of a witness extraction, inverted at every point of one grid.

    Row 0 of the live minor is fixed to one column at a time (``take``). Its
    ``shares`` are the ``target`` coefficients of the terms of the expansion
    along row 0; row 0's cofactors at a grid point are det * (M^-1)[:, 0].
    Taking column c leaves the (0, c) minor, whose determinant is
    (-1)^c det (M^-1)[c, 0] and whose inverse is the rank-one update
    B[-c, 1:] - B[-c, 0] B[c, 1:] / B[c, 0] of B = M^-1, and shifts the
    target down by the taken entry's digits. The set-up's reduced digits
    bound every minor's degrees too, so the set-up's grid serves them all,
    and its trims hold for every minor on the way to the target.

    A point whose live minor is singular, at the start (det 0) or after an
    update (B[c, 0] = 0, so the new det is 0), has no inverse to update:
    ``shares`` is then all zero, and the extraction gives up.

    Memory: 24 n^2 G bytes for a grid of G points (the n x n matrices, their
    inverses and a scratch buffer), plus the set-up's elimination, which
    works on ``_grid``'s chunks.
    """

    def __init__(self, digits: np.ndarray, scalars: np.ndarray, target: tuple[int, ...]):
        digits = np.asarray(digits, dtype=np.int64)
        n = digits.shape[0]
        self.row, self.cols = 0, list(range(n))
        window = _window(digits, np.asarray(scalars, dtype=np.int64), target)
        self.points = None
        if window is None:
            return
        self.digits, scalars, self.dims, self.target = window
        ngrid = math.prod(self.dims)
        self.mats = np.empty((n, n, ngrid), dtype=np.int64)
        self.inv = np.empty((n, n, ngrid), dtype=np.int64)
        self.det = np.empty(ngrid, dtype=np.int64)
        points, start = [], 0
        for pts, mats in _grid(self.digits, scalars, self.dims):
            stop = start + len(pts)
            self.mats[:, :, start:stop] = mats.transpose(1, 2, 0)
            self.det[start:stop], self.inv[:, :, start:stop] = det_batch(mats, inverse=True)
            points.append(pts)
            start = stop
        self.points = np.concatenate(points)
        # The grid is 1..d along each axis, in C order, so row t of the inverse
        # Vandermonde matrix, shaped to broadcast along its axis of the grid,
        # weighs the values at the grid's points into the x^t coefficient.
        tail = len(self.dims) - 1
        self.weights = [
            (axis, vandermonde_inverse(d).reshape((d, d) + (1,) * (tail - axis)))
            for axis, d in enumerate(self.dims)
            if d > 1
        ]
        self.spare = np.empty(n * max(0, n - 1) * ngrid, dtype=np.int64)

    def shares(self) -> np.ndarray:
        """Entry c: the ``target`` coefficient of the live minor's term through (0, c).

        All zero when the live minor is singular at some grid point.
        """
        if self.points is None or not self.det.all():
            return np.zeros(len(self.cols), dtype=np.int64)
        # Each point's det times its weight; a cofactor is det * (M^-1)[c, 0].
        weight = self.det.reshape(self.dims)
        for axis, table in self.weights:
            weight = weight * table[self.target[axis]] % PRIME
        terms = self.mats[self.row, self.cols] * self.inv[:, 0] % PRIME
        return (terms * weight.reshape(-1) % PRIME).sum(axis=1) % PRIME

    def take(self, c: int) -> None:
        """Fix row 0 of the live minor to its column ``c``, counted among the live columns."""
        m = len(self.cols)
        entry = self.digits[self.row, self.cols.pop(c)].tolist()
        self.target = [t - d for t, d in zip(self.target, entry)]
        pivot = self.inv[c, 0]
        self.det = self.det * (PRIME - pivot if c % 2 else pivot) % PRIME
        self.row += 1
        if m == 1:
            return
        ngrid = len(self.det)
        factors = self.inv[c, 1:] * _inverse_vec(pivot) % PRIME
        t = self.spare[: m * (m - 1) * ngrid].reshape(m, m - 1, ngrid)
        np.multiply(self.inv[:, :1], factors, out=t)
        np.subtract(self.inv[:, 1:], t, out=t)
        inv = self.inv.reshape(-1)[: (m - 1) ** 2 * ngrid].reshape(m - 1, m - 1, ngrid)
        # Row c is the taken column's, and drops out.
        if c:
            _mod_prime(t[:c], inv[:c])
        if c + 1 < m:
            _mod_prime(t[c + 1 :], inv[c:])
        self.inv = inv


def _extract_assignment(digits: np.ndarray, scalars: np.ndarray, target: tuple[int, ...]) -> list[int] | None:
    """Self-reduction: fix the rows in order, each to the first column whose
    ``LiveMinor`` share is nonzero, so that its minor still certifies the
    rest of the target. Each share is zero exactly when ``coefficient_at``
    is on the same minor with the same scalars, unless a live minor is
    singular at a grid point, which zeroes every share. A row with no
    nonzero share gives None, and the caller retries with fresh scalars.
    """
    minor = LiveMinor(digits, scalars, target)
    cols = list(range(digits.shape[0]))
    assignment = []
    while cols:
        shares = np.flatnonzero(minor.shares())
        if not shares.size:
            return None
        c = int(shares[0])
        assignment.append(cols.pop(c))
        minor.take(c)
    return assignment


def _search(digits: np.ndarray, target: tuple[int, ...], trials: int, seed: int) -> list[int] | None:
    """An assignment whose digit sums are ``target``, or None after ``trials`` misses.

    A target no permutation has (``_grid_index``) builds no cube. Otherwise
    each trial certifies the target on its (cached) cube before paying for
    the extraction; a failed extraction moves on to fresh scalars.
    """
    if _grid_index(target, *_factor(digits)[1:]) is None:
        return None
    for trial in range(trials):
        cube = _trial_cube(digits, seed, trial)
        if cube.coefficient(target) == 0:
            continue
        assignment = _extract_assignment(digits, cube.scalars, target)
        if assignment is not None:
            return assignment
    return None


def cost_witness(costs: Sequence[Sequence[int]], target: int, trials: int, seed: int) -> list[int] | None:
    """An assignment of cost exactly ``target``, or None after ``trials`` misses; the costs are the one digit axis."""
    _check_dense(len(costs))
    return _search(np.array(costs, dtype=np.int64)[:, :, None], (target,), trials, seed)


def signature_witness(
    costs: Sequence[Sequence[int]], touchable_mask: Sequence[Sequence[bool]], signature: tuple, trials: int, seed: int
) -> list[int] | None:
    """An assignment of cost x with k 3-edges and l touchable 2-edges, for
    ``signature`` (x, k, l), or None after ``trials`` misses. It searches the
    signature digits for the sums (4q - x, k, l), on the cubes ``support``
    builds for the same matrix and seed."""
    x, k, l = signature
    return _search(_signature_digits(costs, touchable_mask), (4 * len(costs) - x, k, l), trials, seed)


def support(
    costs: Sequence[Sequence[int]], touchable_mask: Sequence[Sequence[bool]], trials: int, seed: int
) -> set[tuple[int, int, int]]:
    """The (cost, n3, touchable-n2) signatures certified by the cubes of ``trials`` trials."""
    digits, q = _signature_digits(costs, touchable_mask), len(costs)
    cubes = (_trial_cube(digits, seed, trial) for trial in range(trials))
    return {(4 * q - alpha, n3, n2t) for cube in cubes for alpha, n3, n2t in cube.support()}


def coefficient_at(digits: np.ndarray, scalars: np.ndarray, target: tuple[int, ...]) -> int:
    """One-shot coefficient lookup (builds a full cube for the submatrix)."""
    if digits.shape[0] == 0:
        return 1 if all(t == 0 for t in target) else 0
    return SignatureCube(digits, scalars).coefficient(target)
