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

    Stream word ``p`` serves step ``p - R(p)``, where ``R(p)`` counts the
    rejected words before it.  Rejection depends on the step's bound, so
    ``R`` is found by iterating to its fixed point; each round makes at
    least one more leading word exact, and as a word's threshold barely
    moves with the bound, two rounds normally settle it.
    """
    draws = []
    step = 0      # steps answered so far
    used = 0      # stream words consumed so far
    while step < k:
        need = k - step
        u = _stream(seed, used, need + need // 8 + 64)
        words = np.arange(u.size, dtype=np.int64)
        rejected = np.zeros(u.size, dtype=np.int64)
        while True:
            # words past the last step needed are clamped onto it
            ahead = np.minimum(words - rejected, need - 1)
            bound = np.uint64(n - step) - ahead.astype(np.uint64)
            # accept u < 2^64 - (2^64 mod m), i.e. u <= MAX - (2^64 - m) mod m
            limit = np.uint64(_MASK64) - (
                np.uint64(_MASK64) - bound + np.uint64(1)) % bound
            bad = u > limit
            now = np.concatenate([[0], np.cumsum(bad)[:-1]])
            if np.array_equal(now, rejected):
                break
            rejected = now
        ok = np.flatnonzero(~bad)[:need]
        draws.append(u[ok] % bound[ok])
        step += ok.size
        used += u.size
    return np.concatenate(draws) if draws else np.empty(0, dtype=np.uint64)


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
