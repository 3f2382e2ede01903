"""Seeded sampling primitives with a fully specified generator.

Row samples must be reproducible from the seed alone, independently of the
host platform and of any library RNG, so the generator is pinned down here:

* Stream: splitmix64.  State ``s`` is a 64-bit unsigned integer initialised
  to the seed.  Each draw updates ``s = (s + 0x9E3779B97F4A7C15) mod 2^64``
  and outputs ``mix(s)`` where ``mix`` is::

      z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
      z ^= z >> 27;  z *= 0x94D049BB133111EB
      z ^= z >> 31

* Bounded draws use rejection: a draw ``u`` is accepted when
  ``u < 2^64 - (2^64 mod m)`` and the result is ``u mod m``.

* A without-replacement sample of ``k`` items from ``1..n`` runs a partial
  Fisher-Yates shuffle over the virtual identity array, materialising only
  the touched entries, and returns the first ``k`` entries sorted ascending.
"""

import numpy as np

from .errors import DomainError

_MASK64 = (1 << 64) - 1


def _stream(seed, start, count):
    """Words ``start+1 .. start+count`` of the splitmix64 stream, as uint64.

    numpy's uint64 arithmetic wraps mod 2^64, which is the stream's own.
    """
    steps = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(int(seed) & _MASK64) + steps * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _bounded_draws(n, k, seed):
    """Step ``i``'s draw from ``0..n-i-1`` for ``i = 0..k-1``, vectorised.

    Every bound ``m`` is at most ``n``, so ``2^64 mod m < n`` and a word
    below ``2^64 - n`` is never rejected.  Only the words at or above it are
    tested, one at a time in stream order: word ``p`` serves step ``p - r``,
    where ``r`` counts the words rejected before it.  Each rejected word is
    replaced by the next word of the stream, tested the same way.
    """
    kept = [np.empty(0, dtype=np.uint64)]
    used = rejected = 0   # stream words drawn so far, and rejected of them
    while used - rejected < k:
        u = _stream(seed, used, k - used + rejected)
        keep = np.ones(u.size, dtype=bool)
        high = np.flatnonzero(u >= np.uint64((1 << 64) - n))
        for p, word in zip((used + high).tolist(), u[high].tolist()):
            if word >= (1 << 64) - (1 << 64) % (n - p + rejected):
                keep[p - used] = False
                rejected += 1
        kept.append(u[keep])
        used += u.size
    return np.concatenate(kept) % (np.uint64(n) - np.arange(k, dtype=np.uint64))


def sample_without_replacement(n, k, seed):
    """Sorted simple random sample of ``k`` distinct integers from ``1..n``.

    Partial Fisher-Yates over a virtual array; memory is O(k).  The draws
    come from the splitmix64 stream in bulk and equal those of the scalar
    oracle in ``tests/test_rng.py``, one step at a time.  Indices are
    int64, so ``n`` must be below 2**63.
    """
    if n >= 2 ** 63:
        raise DomainError("population size %d must be below 2**63" % n)
    if not 0 <= k <= n:
        raise DomainError("sample size %d must be in 0..%d" % (k, n))
    swapped = {}
    picked = []
    for i, d in enumerate(_bounded_draws(n, k, seed).tolist()):
        j = i + d
        picked.append(swapped.get(j, j + 1))
        swapped[j] = swapped.get(i, i + 1)
    return np.sort(np.array(picked, dtype=np.int64))


def numpy_generator(seed):
    """A numpy Generator keyed to the same seed, for bulk simulation work."""
    return np.random.Generator(np.random.PCG64(int(seed) & _MASK64))
