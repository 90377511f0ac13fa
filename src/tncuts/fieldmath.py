"""Exact linear algebra over GF(p) for word-sized primes (p < 2**31).

The elimination kernel is the hot loop of the rank oracle; it is the
vectorised numpy row elimination below.  The kernels import numpy on first
call: it takes longer to load than the rest of the package, and only
``verify`` among the CLI commands needs it.
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


def rank_mod(matrix: np.ndarray, p: int) -> int:
    """Rank over GF(p) by row elimination (numpy, exact)."""
    import numpy as np
    a = np.array(matrix, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("rank_mod expects a 2-d array")
    a %= p
    if a.shape[0] > a.shape[1]:
        a = a.T.copy()
    m, k = a.shape
    rank = 0
    for col in range(k):
        if rank == m:
            break
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), -1, p)
        # factors and pivot entries are < p, so products fit in int64
        factors = (a[rank + 1 :, col] * inv) % p
        a[rank + 1 :, col:] = (a[rank + 1 :, col:] - factors[:, None] * a[rank, col:]) % p
        rank += 1
    return rank


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for int64 inputs with entries in [0, p).

    Delayed reduction: both operands are viewed as uint64 and the sum is
    reduced once per four products, since p - 1 + 4*(p-1)^2 < 2^64 for
    p <= 2^31 - 1.  A product of more than SIZE_CAP entries raises
    SizeCapError before anything is allocated.  This refuses no contraction
    of a tensor within the cap when each bond is at most the dimension
    product of either side of its edge, as in every optimalised model: each
    of the sampler's products is then at most the full tensor.
    """
    import numpy as np
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ValueError("matmul_mod shape mismatch")
    if m * n > SIZE_CAP:
        raise SizeCapError(f"product of {m * n} entries exceeds the cap of {SIZE_CAP}")
    a, b = a.view(np.uint64), b.view(np.uint64)
    out = a[:, :4] @ b[:4] if k > 4 else a @ b
    out %= p
    for i in range(4, k, 4):
        out += a[:, i : i + 4] @ b[i : i + 4]
        out %= p
    return out.view(np.int64)
