import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rwpot.rng import (counter_hash, counter_uniform, counter_uniforms, derive_seed,
                       last_word_uniform, prefix_state)


def test_hash_is_deterministic():
    a = counter_hash(42, [[1, 2, 3], [4, 5, 6]])
    b = counter_hash(42, [[1, 2, 3], [4, 5, 6]])
    assert np.array_equal(a, b)


def test_hash_values_are_pinned():
    got = counter_hash(5, np.arange(12).reshape(6, 2))
    assert got.tolist() == [3357374377993410446, 3970369683978675750,
                            3582751960001653500, 17073511229052544911,
                            9596969892231297137, 5109803368731897963]


@pytest.mark.parametrize("seed", [0, -1, 2 ** 63 + 5, 2 ** 64 - 1])
def test_absorbed_prefix_extends_to_counter_uniform(seed):
    episodes = np.array([0, 1, 1024, 2 ** 40 + 3, 2 ** 62, 2 ** 63 - 1],
                        dtype=np.int64)
    state = prefix_state(seed, episodes[:, None])
    before = state.copy()
    out, tmp = np.empty_like(state), np.empty_like(state)
    for t in (0, 1, 2, 77, 2 ** 31):
        got = last_word_uniform(state, 1, t, out, tmp)
        want = counter_uniform(seed, np.stack([episodes, np.full_like(episodes, t)], axis=-1))
        assert got.tobytes() == want.tobytes()
    assert state.tobytes() == before.tobytes()


def test_hash_depends_on_seed_and_counters():
    base = counter_hash(1, [0, 0])
    assert counter_hash(2, [0, 0]) != base
    assert counter_hash(1, [0, 1]) != base
    assert counter_hash(1, [1, 0]) != base


def test_order_independence():
    counters = np.array([[i, 7] for i in range(1000)])
    forward = counter_uniform(9, counters)
    shuffled = counter_uniform(9, counters[::-1])[::-1]
    assert np.array_equal(forward, shuffled)


def test_uniform_open_interval_and_mean():
    u = counter_uniform(3, np.arange(200000).reshape(-1, 1))
    assert np.all((u > 0) & (u < 1))
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1 / 12) < 0.005


def test_negative_counters_are_valid():
    u = counter_uniform(5, [[-3, -7], [3, 7]])
    assert u[0] != u[1]
    assert np.all((u > 0) & (u < 1))


def test_derive_seed_distinct_streams():
    seeds = {derive_seed(11, tag) for tag in range(100)}
    assert len(seeds) == 100


@settings(max_examples=300, deadline=None)
@given(st.integers(-2 ** 70, 2 ** 70),
       st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=3))
def test_derive_seed_is_counter_hash_of_its_tags(seed, tags):
    want = int(counter_hash(seed, np.asarray(tags, dtype=np.int64)))
    assert derive_seed(seed, *tags) == want
    assert derive_seed(seed, *map(np.int64, tags)) == want


def test_derive_seed_rejects_tags_outside_int64():
    for tag in (2 ** 63, -2 ** 63 - 1):
        with pytest.raises(OverflowError):
            derive_seed(1, 0, tag)


def test_many_seeds_hash_in_one_pass_bit_for_bit():
    # seeds past int64 and negative ones are read modulo 2^64, as one seed is
    seeds = [0, 5, 2 ** 64 - 1, -7, 2 ** 63 + 5, derive_seed(3, 1)]
    counters = np.arange(-20, 40).reshape(20, 3)
    u = counter_uniforms(seeds, counters)
    assert u.shape == (len(seeds), 20)
    for row, seed in zip(u, seeds):
        assert np.array_equal(row, counter_uniform(seed, counters))
    assert counter_uniforms([9], [4, 2])[0] == counter_uniform(9, [4, 2])
