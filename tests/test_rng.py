import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from skypix.errors import DomainError
from skypix.rng import sample_without_replacement

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 over python ints (exact 64-bit arithmetic), one word at a
    time, as ``skypix/rng.py`` specifies it: the sampler's oracle."""

    def __init__(self, seed):
        self._s = int(seed) & _MASK64

    def next_u64(self):
        self._s = (self._s + 0x9E3779B97F4A7C15) & _MASK64
        z = self._s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, m):
        """Unbiased draw from ``0..m-1`` by rejection."""
        if m <= 0:
            raise ValueError("bound must be positive")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % m)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % m


def test_stream_matches_reference_words():
    # independently computed from the published splitmix64 update/mix
    # constants with seed 1234567
    rng = SplitMix64(1234567)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [6457827717110365317, 3203168211198807973,
                     9817491932198370423]


def test_stream_is_64_bit():
    rng = SplitMix64(2 ** 70 + 5)   # seeds fold into 64 bits
    assert rng.next_u64() == SplitMix64(5 + (2 ** 70 % 2 ** 64)).next_u64()
    assert all(0 <= SplitMix64(s).next_u64() < 2 ** 64 for s in range(50))


def test_bounded_draws_cover_range():
    rng = SplitMix64(9)
    draws = {rng.next_below(7) for _ in range(500)}
    assert draws == set(range(7))
    with pytest.raises(ValueError):
        rng.next_below(0)


def test_sample_identity_when_full():
    assert np.array_equal(sample_without_replacement(10, 10, seed=4),
                          np.arange(1, 11))


def test_sample_deterministic_sorted_unique():
    a = sample_without_replacement(1000, 50, seed=77)
    b = sample_without_replacement(1000, 50, seed=77)
    assert np.array_equal(a, b)
    assert len(np.unique(a)) == 50
    assert np.all(np.diff(a) > 0)
    assert a.min() >= 1 and a.max() <= 1000
    c = sample_without_replacement(1000, 50, seed=78)
    assert not np.array_equal(a, c)


def test_sample_bounds():
    with pytest.raises(ValueError):
        sample_without_replacement(5, 6, seed=0)
    assert sample_without_replacement(5, 0, seed=0).size == 0
    assert sample_without_replacement(0, 0, seed=0).size == 0


@pytest.mark.parametrize("n, k, words", [
    (5, 6, ["6", "0..5"]), (5, -1, ["-1", "0..5"]),
    (2 ** 63, 3, [str(2 ** 63)]), (2 ** 64 + 7, 0, [str(2 ** 64 + 7)])])
def test_sample_domain_errors_name_the_numbers(n, k, words):
    with pytest.raises(DomainError) as err:
        sample_without_replacement(n, k, seed=0)
    assert all(w in str(err.value) for w in words)


def test_sample_largest_population():
    out = sample_without_replacement(2 ** 63 - 1, 5, seed=3)
    assert out.dtype == np.int64 and out.size == 5 and out.min() >= 1


def test_sample_is_uniform_over_items():
    # every item should appear in roughly k/n of repeated samples
    hits = np.zeros(20)
    for seed in range(400):
        hits[sample_without_replacement(20, 5, seed=seed) - 1] += 1
    expected = 400 * 5 / 20
    assert np.all(np.abs(hits - expected) < 5 * np.sqrt(expected))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2 ** 64 - 1))
def test_sample_property(n, seed):
    k = min(n, 17)
    out = sample_without_replacement(n, k, seed)
    assert out.size == k
    assert len(set(out.tolist())) == k
    assert out.min() >= 1 and out.max() <= n


def _scalar_sample(n, k, seed):
    """The sampler drawn one step at a time through ``SplitMix64``."""
    rng = SplitMix64(seed)
    swapped = {}
    picked = []
    for i in range(k):
        j = i + rng.next_below(n - i)
        picked.append(swapped.get(j, j + 1))
        swapped[j] = swapped.get(i, i + 1)
    return sorted(picked)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(1, 2000), st.integers(1, 2 ** 63 - 1),
                 st.sampled_from([12 * 4 ** 29, 2 ** 64 // 3 + 1])),
       st.integers(0, 600), st.integers(0, 2 ** 64 - 1))
@example(n=64, k=64, seed=5)
@example(n=12 * 4 ** 29, k=600, seed=1)
@example(n=12 * 4 ** 29, k=20000, seed=2)
@example(n=2 ** 64 // 3 + 1, k=20000, seed=3)
@example(n=2 ** 63 - 1, k=20000, seed=4)
@example(n=5000, k=5000, seed=6)
@example(n=2, k=2, seed=7)
@example(n=2, k=1, seed=8)
@example(n=3, k=3, seed=9)
@example(n=3, k=2, seed=10)
@example(n=257, k=257, seed=11)
@example(n=257, k=256, seed=12)
@example(n=1000, k=1000, seed=13)
@example(n=1000, k=999, seed=14)
@example(n=3_145_728, k=154_638, seed=15)
def test_bulk_draws_match_scalar_stream(n, k, seed):
    # 12 * 4**29 rejects about 1 draw in 16 and 2**64 // 3 + 1 about 1 in 3,
    # so there the replacement words are themselves rejected, round on round;
    # with k near n most steps swap into 0..k-1 and the chains that carry a
    # value from step to step run long (the whole-map variogram sample too)
    k = min(k, n)
    assert (sample_without_replacement(n, k, seed).tolist()
            == _scalar_sample(n, k, seed))
