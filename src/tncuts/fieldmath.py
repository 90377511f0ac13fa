"""Exact linear algebra over GF(p) for word-sized primes (p < 2**31).

The elimination is the hot loop of the rank oracle: one vectorised numpy
row elimination, ``_eliminate``, that works in place on a uint64 buffer
with entries in [0, p).  It has two ways in, each making the one copy it
eliminates: ``rank_mod`` reduces any int64 matrix into the buffer, and
``oracle.flattening_rank`` copies a tensor's flattening into it as it
is.  Both kernels, elimination and product, delay the reduction
mod p, as in FFLAS-FFPACK (Dumas, Giorgi, Pernet, ACM TOMS 2008): they
work in uint64 and reduce once per four products of two residues, since
p - 1 + 4*(p-1)^2 < 2^64 for p <= MAX_PRIME.  A larger p would overflow
silently, so both refuse it with ValueError.  Each kernel also refuses
more multiply-adds than a fixed work cap with SizeCapError.  This module
imports numpy, which takes longer to load than the rest of the package,
and only ``verify`` among the CLI commands loads it; SizeCapError lives
in ``trees``, so a refused input loads neither.

A matrix of more than _PANEL = 32 rows is eliminated in panels of that
many rows, again as in FFLAS-FFPACK: the pivots of a panel are found row
by row, and the rows after it are then updated by one float64 BLAS
product.  Its operands are split into 16-bit halves, so every sum in it
is an integer below 32 * (2^16 - 1 + 2^15 - 1) * (p - 1) < 2^53 and
the product is exact whatever the BLAS summation order or thread count.
A matrix of at most 32 rows, and the last panel of any matrix, takes
the row-by-row loop alone.

A wide matrix of full row rank costs about what an m x 2m one does.  When
k >= 4m and k is above the width crossover _WIDE, ``_eliminate`` first
eliminates a copy of 2m spread-out columns: if that sample has rank m,
so has the matrix, since its rank is at most m and its columns include
the sample's.  Only a sample of lower rank leads to the full elimination.
In either kernel a reduction of more than _WIDE entries is made as
x - (x // p) * p, and a row that wide is searched for its pivot with
argmax: numpy runs these faster at that size, and the remainder and
nonzero faster below it.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, sqrt

import numpy as np

from .trees import SizeCapError

MAX_PRIME = (1 << 31) - 1
MIN_PRIME = 10**6
DEFAULT_PRIME = MAX_PRIME
SIZE_CAP = 1 << 24
# Multiply-adds a kernel may take on: rank_mod counts m * k * min(m, k) for
# an m x k input, matmul_mod counts m * k * n.  At the cap, on a 2-vCPU x86
# VM (numpy 2.4, OpenBLAS 0.3.31): elimination 0.06 s on 812 x 812, 0.31 s
# on 64 x 2^17 and 0.21 s on 128 x 2^15 at rank m - 1; on 32 x 2^19 (the
# widest flattening of a 2^24-entry tensor, one panel) 0.05 s at rank 32,
# which the column sample certifies, and 0.52-0.54 s at rank 31; products
# 0.58 s on 812^3 and 0.8-0.9 s on 4096 x 32 x 4096.
RANK_WORK_CAP = 1 << 29
MATMUL_WORK_CAP = 1 << 29
# Size, in uint64 entries, above which the wide forms of ``_reduce`` and
# ``_pivot`` are the faster ones, and ``_eliminate`` tries a column sample
# of a matrix at least four times wider than tall.  On a 2-vCPU x86 VM (numpy 2.4) both
# pairs meet at about 400: the remainder took 1.05 / 1.42 / 17.2 us at
# 243 / 400 / 6561 entries against 1.37 / 1.43 / 5.6 us for x - x // q * q,
# and nonzero 0.63 / 0.87 / 9.5 us against 0.85 / 0.84 / 1.8 us for argmax
# (one nonzero entry, the last).
_WIDE = 400
# Rows per panel of ``_eliminate``.  Its float64 products stay exact while
# _PANEL * (2^16 - 1 + 2^15 - 1) * (p - 1) < 2^53, that is up to 42 rows
# at p = MAX_PRIME; 32 keeps the row-by-row part of a panel small.
_PANEL = 32
# Columns per panel update: its float64 temporaries stay near 5 * _PANEL
# * _CHUNK entries beyond the rows it updates, however wide the matrix.
_CHUNK = 4096


def active_backend() -> str:
    """Name of the rank kernel, recorded with benchmark runs: always "pure"."""
    return "pure"


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.2e18; memoised per n."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def validate_prime(p: int) -> int:
    """Check the field modulus: a prime with 10**6 < p <= 2**31 - 1."""
    if not isinstance(p, int) or p <= MIN_PRIME or p > MAX_PRIME:
        raise ValueError(f"field modulus must satisfy 10^6 < p <= 2^31-1, got {p}")
    if not is_prime(p):
        raise ValueError(f"field modulus must be prime, got {p}")
    return p


def _check_modulus(p: int) -> None:
    if p > MAX_PRIME:
        raise ValueError(f"field modulus {p} exceeds 2^31-1: the uint64 arithmetic would overflow")


def _check_work(name: str, madds: int, cap: int) -> None:
    if madds > cap:
        raise SizeCapError(f"{name} of {madds} multiply-adds exceeds the cap of {cap}")


def rank_mod(matrix: np.ndarray, p: int) -> int:
    """Rank over GF(p) of any 2-d int64 array; the input is left as it was.

    The shorter side becomes the rows of one reduced uint64 copy, which
    ``_eliminate`` then works on in place; its temporaries (a column
    sample of a wide input, the per-pivot products, a panel's float64
    update, _CHUNK columns at a time) come to about the size of that copy.
    More than RANK_WORK_CAP multiply-adds, counted as m * k * min(m, k)
    for an m x k input, raise SizeCapError before the copy.
    """
    a = np.asarray(matrix, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("rank_mod expects a 2-d array")
    if a.shape[0] > a.shape[1]:
        a = a.T
    buf = _rank_buffer(*a.shape, p)
    np.remainder(a, p, out=buf.view(np.int64))
    return _eliminate(buf, p)


def _rank_buffer(m: int, k: int, p: int) -> np.ndarray:
    """An empty C-ordered uint64 (m, k) array for ``_eliminate``, once p and
    the work m * m * k have passed their caps."""
    _check_modulus(p)
    _check_work("elimination", m * m * k, RANK_WORK_CAP)
    return np.empty((m, k), dtype=np.uint64)


def _eliminate(a: np.ndarray, p: int) -> int:
    """Rank of a C-ordered uint64 (m, k) array, m <= k, with entries in [0, p).

    Row elimination in place, top to bottom, in panels of _PANEL rows; ``a``
    is overwritten.  Within a panel, a row that reduces to zero depends on
    the rows above it; otherwise its first nonzero is the pivot, and (p -
    factor) times the row is added to other rows of the panel, so every
    update is a non-negative product of two residues, at most (p - 1)^2.
    Those rows are reduced once every four updates, from the leftmost
    column those updates touched: an entry is then at most
    p - 1 + 4(p - 1)^2 < 2^64.  Between reductions the entries are
    unreduced, so a row with updates pending is reduced in place before the
    nonzero search (an unreduced multiple of p is a zero), and the pivot
    column before it is multiplied.

    The last panel, and so the whole of a matrix of at most _PANEL rows,
    updates only the rows below each pivot.  A panel with rows after it
    updates all its other rows, and scales the pivot row by the inverse of
    its pivot, so that its pivot rows U end with U[:, piv] = I.  The rows
    after it, T, are then updated once, T -= T[:, piv] @ U mod p, by an
    exact float64 product (``_update_float``) per _CHUNK columns, and stay
    in ``a`` as residues.  When they are all zero, the rank is found.

    A wide input, k >= 4m and k > _WIDE, is first certified on a copy of
    2m of its columns (``_sample_columns``), eliminated the same way: a
    sample of rank m proves rank m, since the rank is at most m and the
    sample's columns are columns of ``a``.  The sample is given up at its
    first dependent row, so a failed sample costs at most one panel more
    than its pivots, and ``a``, untouched so far, is eliminated in full.
    Every uint64 reduction, of a row or of the rows below, goes through
    ``_reduce``, and every pivot search through ``_pivot``: each takes its
    wide form above _WIDE entries.
    """
    m, k = a.shape
    q = np.uint64(p)
    wide = k >= 4 * m and k > _WIDE
    for b in (a[:, _sample_columns(m, k)], a) if wide else (a,):
        w = b.shape[1]
        rank = 0
        for i0 in range(0, m, _PANEL):
            end = min(i0 + _PANEL, m)
            tail = end < m
            pivots = []
            updates = 0
            lo = w  # leftmost column updated since the last reduction
            for i in range(i0, end):
                row = b[i]
                if updates:
                    _reduce(row[lo:], q)
                j = _pivot(row)
                if j < 0:
                    if b is a:
                        continue
                    break  # a dependent row: the sample's rank is below m
                rank += 1
                if tail:
                    pivots.append((i, j))
                    start = i0
                elif i + 1 == m:
                    break
                else:
                    start = i + 1
                below = b[start:end, j:]
                inv = pow(row.item(j), -1, p)
                # a Python int factor: numpy converts it faster than np.uint64 makes one
                neg = below[:, 0] % q * (p - inv)
                neg %= q
                if tail:
                    neg[i - i0] = inv - 1  # the pivot row: row + (inv - 1) * row = inv * row
                below += neg[:, None] * row[j:]
                if j < lo:
                    lo = j
                updates += 1
                if updates == 4:
                    _reduce(b[start:end, lo:], q)
                    updates, lo = 0, w
            if b is not a and rank < end:
                break
            if not pivots:  # the last panel, or a zero one: nothing to update
                continue
            if updates:
                _reduce(b[i0:end, lo:], q)
            rows, cols = map(list, zip(*pivots))
            rest = b[end:]
            x = rest[:, cols]
            # U is zero left of its first pivot
            for c in range(min(cols), w, _CHUNK):
                _update_float(rest[:, c : c + _CHUNK], x, b[rows, c : c + _CHUNK], p)
            if not rest.any():
                break
        if rank == m:
            break
    return rank


def _update_float(t: np.ndarray, x: np.ndarray, u: np.ndarray, p: int) -> None:
    """t = (t - x @ u) mod p in place, exactly, by one float64 product.

    t (n x w), x (n x r) and u (r x w) are uint64 arrays with entries in
    [0, p), and r <= _PANEL.  With x = x0 + 2^16 x1 (x0 < 2^16, x1 < 2^15)
    the difference is taken as t - [x0 | x1] @ [u ; (2^16 u) mod p]: the
    product's partial sums are integers below
    _PANEL * (2^16 - 1 + 2^15 - 1) * (p - 1) < 2^53, so each is a float64,
    and the BLAS summation order, FMA use and thread count do not change
    the result.  The difference, in (-2^53, p), is reduced
    (``_reduce_float``) and written back to t.
    """
    r = len(u)
    xs = np.empty((len(x), 2 * r))
    xs[:, :r] = x & 0xFFFF
    xs[:, r:] = x >> 16
    v = np.empty((2 * r, u.shape[1]))
    v[:r] = u
    np.multiply(v[:r], 1 << 16, out=v[r:])
    _reduce_float(v[r:], p, np.empty_like(v[r:]))
    s = xs @ v
    np.subtract(t, s, out=s)
    _reduce_float(s, p, t.view(np.float64))  # t is read: its memory is scratch
    np.copyto(t, s, casting="unsafe")


def _reduce_float(x: np.ndarray, p: int, y: np.ndarray) -> None:
    """Reduce the float64 array ``x`` of integers below 2^53 in magnitude
    mod p in place, to [0, p), with ``y``, of x's shape, as scratch.

    x - floor(x / p) * p, with x / p taken as x * (1 / p): its rounding
    moves the floor by at most one, which one fix-up of p either way
    corrects.  np.fmod is about 20 times slower.
    """
    np.multiply(x, 1 / p, out=y)
    np.floor(y, out=y)
    y *= p
    x -= y
    np.add(x, p, out=x, where=x < 0)
    np.subtract(x, p, out=x, where=x >= p)


def _reduce(x: np.ndarray, q: np.uint64) -> None:
    """Reduce the uint64 array ``x`` mod the uint64 modulus q in place."""
    if x.size > _WIDE:
        # numpy vectorises integer division by a scalar, but not the remainder
        x -= x // q * q
    else:
        x %= q


def _pivot(row: np.ndarray) -> int:
    """Column of the first nonzero entry of a reduced row, -1 if there is none."""
    if row.size > _WIDE:
        nz = row != 0
        j = int(nz.argmax())
        return j if nz[j] else -1
    nz = row.nonzero()[0]
    return int(nz[0]) if nz.size else -1


def _sample_columns(m: int, k: int) -> np.ndarray:
    """The 2m column indices i * s mod k, i < 2m, that ``_eliminate``
    certifies a wide (m, k) array on.

    The stride s is the first integer from k(sqrt(5) - 1)/2 up that is
    coprime to k, so the indices are distinct (2m <= k) and spread over
    [0, k) like a golden-ratio sequence.  Read as the multi-indices of a
    flattening's column axes, they vary the leading axes as well as the
    trailing ones, where a stride of 1 would fix the leading axes and one
    sharing a factor with k a trailing one.  Columns that all fix an axis
    are a slice of the tensor, whose rank can be lower.
    """
    s = round(k * (sqrt(5) - 1) / 2)
    while gcd(s, k) != 1:
        s += 1
    return np.arange(2 * m, dtype=np.int64) * s % k


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for int64 inputs with entries in [0, p).

    Delayed reduction: both operands are viewed as uint64 and the sum is
    reduced once per four products, since p - 1 + 4*(p-1)^2 < 2^64 for
    p <= 2^31 - 1.  A product of more than SIZE_CAP entries or more than
    MATMUL_WORK_CAP multiply-adds raises SizeCapError before anything is
    allocated.  The entry cap refuses no contraction of a tensor within the
    cap when each bond is at most the dimension product of either side of
    its edge, as in every optimalised model: each of the sampler's products
    is then at most the full tensor.
    """
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ValueError("matmul_mod shape mismatch")
    _check_modulus(p)
    if m * n > SIZE_CAP:
        raise SizeCapError(f"product of {m * n} entries exceeds the cap of {SIZE_CAP}")
    _check_work("product", m * k * n, MATMUL_WORK_CAP)
    a, b, q = a.view(np.uint64), b.view(np.uint64), np.uint64(p)
    out = a[:, :4] @ b[:4]
    _reduce(out, q)
    for i in range(4, k, 4):
        out += a[:, i : i + 4] @ b[i : i + 4]
        _reduce(out, q)
    return out.view(np.int64)
