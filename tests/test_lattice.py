import numpy as np
import pytest
from hypothesis import given, strategies as st

from rwpot.errors import CapacityError, ParameterError
from rwpot.lattice import (AnimalSpec, BoxRegion, canonical_form, coarse_index,
                           enumerate_animals, norms)
from util_oracles import (block_sites, brute_force_fixed_animal_count, flood_fill_connected,
                          rotation_to_direction)


def test_norms():
    assert norms((3, -4)) == (7, 5.0, 4)
    assert norms((0, 0, 0)) == (0, 0.0, 0)


def test_box_region_basics():
    box = BoxRegion((-1, -1), (2, 3))
    assert box.shape == (3, 4)
    assert box.site_count == 12
    assert box.contains((1, 2)) and not box.contains((2, 0))
    sites = box.sites()
    assert sites.shape == (12, 2)
    assert tuple(sites[0]) == (-1, -1)
    with pytest.raises(ParameterError):
        BoxRegion((0, 0), (0, 1))


def test_centered_box():
    box = BoxRegion.centered(2, 3)
    assert box.lo == (-2, -2, -2) and box.hi == (3, 3, 3)


def test_coarse_index_box_scheme():
    assert coarse_index((0, 0), "B", 4) == (0, 0)
    assert coarse_index((3, 4), "B", 4) == (0, 1)
    assert coarse_index((-1, -4), "B", 4) == (-1, -1)


def test_coarse_index_cube_scheme():
    # cells are l*q + [-l/2, l/2)
    assert coarse_index((0, 0), "C", 4) == (0, 0)
    assert coarse_index((1, -2), "C", 4) == (0, 0)
    assert coarse_index((2, -3), "C", 4) == (1, -1)
    with pytest.raises(ParameterError):
        coarse_index((0, 0), "C", 3)


def test_canonical_form_translation_invariance():
    cells = [(2, 3), (3, 3), (2, 4)]
    shifted = [(c[0] - 7, c[1] + 5) for c in cells]
    assert canonical_form(cells) == canonical_form(shifted)
    assert canonical_form(cells)[0] == (0, 0)


def test_animal_counts_match_flood_fill_oracle():
    expected = [brute_force_fixed_animal_count(2, size) for size in range(1, 6)]
    got = [enumerate_animals(AnimalSpec(2, size, "L1"))[1] for size in range(1, 6)]
    assert got == expected == [1, 2, 6, 19, 63]


def test_anchored_count_is_size_times_fixed():
    for size in range(1, 6):
        _, fixed = enumerate_animals(AnimalSpec(2, size, "L1"))
        anchored, n_anch = enumerate_animals(AnimalSpec(2, size, "L1", True))
        assert n_anch == size * fixed
        origin = (0, 0)
        assert all(origin in animal for animal in anchored)


def test_animals_are_enumerated_once_and_handed_out_as_fresh_lists():
    # sizes 1..5 grown once: a later call repeats the same sorted list, which
    # its caller may change without touching the next call's
    first, n = enumerate_animals(AnimalSpec(2, 5, "L1", True))
    want = list(first)
    assert first == sorted(first)
    first.clear()
    again, m = enumerate_animals(AnimalSpec(2, 5, "L1", True))
    assert again == want and m == n == 5 * 63


def test_animals_are_connected_and_capped():
    animals, _ = enumerate_animals(AnimalSpec(2, 4, "L1"))
    for animal in animals:
        assert flood_fill_connected(animal)
    with pytest.raises(CapacityError):
        enumerate_animals(AnimalSpec(2, 9, "L1"))


def test_linf_animals_superset_of_l1():
    _, n_l1 = enumerate_animals(AnimalSpec(2, 3, "L1"))
    _, n_linf = enumerate_animals(AnimalSpec(2, 3, "Linf"))
    assert n_linf > n_l1


@given(st.lists(st.integers(-5, 5), min_size=2, max_size=3).filter(
    lambda v: any(v)))
def test_rotation_is_orthogonal_and_aligns_first_axis(xi):
    xi = np.asarray(xi)
    R = rotation_to_direction(xi)
    d = len(xi)
    assert np.allclose(R @ R.T, np.eye(d), atol=1e-12)
    assert np.allclose(R[:, 0], xi / np.linalg.norm(xi), atol=1e-12)


def test_block_sites_axis_direction_is_a_box():
    sites = block_sites(np.array([1, 0]), 0, 6, 5)
    lo = sites.min(axis=0)
    hi = sites.max(axis=0)
    assert tuple(lo) == (-5, -5) and tuple(hi) == (11, 5)
    assert len(sites) == 17 * 11


def test_block_sites_contains_endpoints():
    for xi in ([1, 0], [1, 1], [2, 1]):
        sites = block_sites(np.array(xi), 1, 4, 3)
        have = {tuple(s) for s in sites}
        assert tuple(1 * np.array(xi)) in have
        assert tuple(4 * np.array(xi)) in have
