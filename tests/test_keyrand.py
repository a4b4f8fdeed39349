import warnings

import numpy as np

from conftest import uniform
from rmae import keyrand


def test_scalar_and_array_paths_agree():
    groups = np.arange(50, dtype=np.int64)
    coords = np.arange(50, dtype=np.int64) * 3
    vec = keyrand.uniform_array(42, groups, coords)
    for i in range(50):
        assert vec[i] == uniform(42, int(groups[i]), int(coords[i]))


def test_deterministic_and_key_sensitive():
    def u(seed, *keys):
        return keyrand.uniform_array(seed, *([k] for k in keys))[0]

    assert u(1, 2, 3) == u(1, 2, 3)
    assert u(1, 2, 3) != u(1, 2, 4)
    assert u(1, 2, 3) != u(2, 2, 3)
    assert keyrand.derive_seed(7, 1) != keyrand.derive_seed(7, 2)


def test_uniform_range_and_mean():
    u = keyrand.uniform_array(
        123, np.zeros(200_000, dtype=np.int64), np.arange(200_000)
    )
    assert (u >= 0).all() and (u < 1).all()
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1 / 12) < 0.005


def test_negative_keys_wrap_consistently():
    a = keyrand.uniform_array(0, np.array([-5], dtype=np.int64))
    assert a[0] == uniform(0, -5)


def test_large_seed_accepted():
    a = keyrand.uniform_array(2**64 - 1, np.array([9]))
    assert a[0] == uniform(2**64 - 1, 9) and 0 <= a[0] < 1


def test_scalar_keys_draw_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = keyrand.uniform_array(1, 2, 3)
        wrapped = keyrand.uniform_array(0, -5, 2**64 - 1)
        mixed = keyrand.uniform_array(1, 2, np.array([[3, 4]]))
    assert u.shape == () and u == uniform(1, 2, 3)
    assert wrapped == uniform(0, -5, 2**64 - 1)
    assert mixed.shape == (1, 2) and mixed[0, 1] == uniform(1, 2, 4)
