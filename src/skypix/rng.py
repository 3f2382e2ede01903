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

* A without-replacement sample of ``k`` items from ``1..n`` is the set of
  the first ``k`` entries of the virtual identity array after a partial
  Fisher-Yates shuffle, sorted ascending.  The set is resolved from the
  draws with array operations; the swaps themselves are never run.
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

    The set a partial Fisher-Yates shuffle leaves in positions ``0..k-1``,
    where step ``i`` swaps positions ``i`` and ``j_i = i + draw_i``.  The
    draws come from the splitmix64 stream in bulk and equal those of the
    scalar oracle in ``tests/test_rng.py``, one step at a time; the swaps
    are not run.  They permute the values of positions ``0..k-1`` and of
    the far positions ``j_i >= k`` among themselves, so the sample is
    ``1..k`` and each far position plus one, less the values left at far
    positions.  Those are found by pointer doubling; memory is O(k).
    Indices are int64, so ``n`` must be below 2**63.
    """
    if n >= 2 ** 63:
        raise DomainError("population size %d must be below 2**63" % n)
    if not 0 <= k <= n:
        raise DomainError("sample size %d must be in 0..%d" % (k, n))
    steps = np.arange(k, dtype=np.int64)
    dest = steps + _bounded_draws(n, k, seed).astype(np.int64)
    # when step t runs, position t holds what position s held when step s
    # ran, s the last earlier step with j_s = t; at the end of that chain,
    # a step no earlier step wrote to, position origin[t] holds origin[t] + 1
    back = steps[(dest < k) & (dest > steps)]
    origin = np.full(k, -1, dtype=np.int64)
    np.maximum.at(origin, dest[back], back)
    origin = np.where(origin < 0, steps, origin)
    while not np.array_equal(hop := origin[origin], origin):
        origin = hop
    # a far position holds what its last writer t took from position t
    far = np.flatnonzero(dest >= k)
    writers = far[np.argsort(dest[far])]
    held = dest[writers]
    starts = np.flatnonzero(np.diff(held, prepend=-1))
    keep = np.ones(k, dtype=bool)
    keep[origin[np.maximum.reduceat(writers, starts)]] = False
    return np.concatenate([np.flatnonzero(keep) + 1, held[starts] + 1])


def numpy_generator(seed):
    """A numpy Generator keyed to the same seed, for bulk simulation work."""
    return np.random.Generator(np.random.PCG64(int(seed) & _MASK64))
