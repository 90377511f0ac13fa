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
more multiply-adds than a fixed work cap with SizeCapError.  The kernels
import numpy on first call: it takes longer to load than the rest of the
package, and only ``verify`` among the CLI commands needs it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

MAX_PRIME = (1 << 31) - 1
MIN_PRIME = 10**6
DEFAULT_PRIME = MAX_PRIME
SIZE_CAP = 1 << 24
# Multiply-adds a kernel may take on: rank_mod counts m * k * min(m, k) for
# an m x k input, matmul_mod counts m * k * n.  At the cap, on a 2-vCPU x86
# VM: elimination 0.6 s on 812 x 812 and 1.6 s on 32 x 2^19 (the widest
# flattening of a 2^24-entry tensor), products 1.4-1.8 s.
RANK_WORK_CAP = 1 << 29
MATMUL_WORK_CAP = 1 << 29


class SizeCapError(RuntimeError):
    """An input would exceed a resource cap (the oracle's dense sizes, the CLI's flags)."""


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

    The shorter side becomes the rows of one reduced uint64 copy, the only
    copy taken, which ``_eliminate`` then works on in place.  More than
    RANK_WORK_CAP multiply-adds, counted as m * k * min(m, k) for an m x k
    input, raise SizeCapError before the copy.
    """
    import numpy as np
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
    import numpy as np
    _check_modulus(p)
    _check_work("elimination", m * m * k, RANK_WORK_CAP)
    return np.empty((m, k), dtype=np.uint64)


def _eliminate(a: np.ndarray, p: int) -> int:
    """Rank of a C-ordered uint64 (m, k) array, m <= k, with entries in [0, p).

    Row elimination in place, top to bottom; ``a`` is overwritten.  A row
    that reduces to zero depends on the rows above it; otherwise its first
    nonzero is the pivot, and (p - factor) times the row is added to each
    row below, so every update is a non-negative product of two residues,
    at most (p - 1)^2.  The rows below are reduced once every four updates,
    from the leftmost column those updates touched: an entry is then at
    most p - 1 + 4(p - 1)^2 < 2^64.  Between reductions the entries are
    unreduced, so a row with updates pending is reduced in place before the
    nonzero search (an unreduced multiple of p is a zero), and the pivot
    column before it is multiplied.
    """
    import numpy as np
    m, k = a.shape
    q = np.uint64(p)
    rank = updates = 0
    lo = k  # leftmost column updated since the last reduction
    for i in range(m):
        row = a[i]
        if updates:
            row[lo:] %= q
        nz = row.nonzero()[0]
        if nz.size == 0:
            continue
        rank += 1
        if i + 1 == m:
            break
        j = int(nz[0])
        below = a[i + 1 :, j:]
        neg = below[:, 0] % q * np.uint64(p - pow(int(row[j]), -1, p))
        neg %= q
        below += neg[:, None] * row[j:]
        lo = min(lo, j)
        updates += 1
        if updates == 4:
            below = a[i + 1 :, lo:]
            # x - (x // p) * p: numpy vectorises integer division by a
            # scalar, but not the remainder
            below -= below // q * q
            updates, lo = 0, k
    return rank


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
    import numpy as np
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ValueError("matmul_mod shape mismatch")
    _check_modulus(p)
    if m * n > SIZE_CAP:
        raise SizeCapError(f"product of {m * n} entries exceeds the cap of {SIZE_CAP}")
    _check_work("product", m * k * n, MATMUL_WORK_CAP)
    a, b = a.view(np.uint64), b.view(np.uint64)
    out = a[:, :4] @ b[:4]
    out %= p
    for i in range(4, k, 4):
        out += a[:, i : i + 4] @ b[i : i + 4]
        out %= p
    return out.view(np.int64)
