"""Point-set construction, generators, and serialization round trips."""

import numpy as np
import pytest

from discnorm.pointset import (
    PointSet,
    empty_pointset,
    generate_halton,
    generate_uniform,
    load_pointset,
    save_pointset,
)


def test_shape_and_properties():
    ps = PointSet(np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert ps.n_points == 2
    assert ps.dim == 2
    assert ps.coords.flags.writeable is False


def test_rejects_out_of_range_coordinates():
    with pytest.raises(ValueError):
        PointSet(np.array([[0.5, 1.0]]))
    with pytest.raises(ValueError):
        PointSet(np.array([[-0.1, 0.5]]))
    with pytest.raises(ValueError):
        PointSet(np.array([[np.nan, 0.5]]))
    with pytest.raises(ValueError):
        PointSet(np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        PointSet(np.empty((3, 0)))


def test_empty_pointset():
    ps = empty_pointset(3)
    assert ps.n_points == 0
    assert ps.dim == 3
    with pytest.raises(ValueError):
        empty_pointset(0)


def test_uniform_generator_is_deterministic():
    a = generate_uniform(16, 3, seed=42)
    b = generate_uniform(16, 3, seed=42)
    c = generate_uniform(16, 3, seed=43)
    assert np.array_equal(a.coords, b.coords)
    assert not np.array_equal(a.coords, c.coords)
    assert a.coords.min() >= 0.0 and a.coords.max() < 1.0


def test_uniform_generator_validation():
    with pytest.raises(ValueError):
        generate_uniform(-1, 2, seed=0)
    with pytest.raises(ValueError):
        generate_uniform(4, 0, seed=0)
    assert generate_uniform(0, 2, seed=0).n_points == 0


def test_halton_base2_prefix():
    # base-2 radical inverse of 1, 2, 3, 4 (index starts at 1)
    ps = generate_halton(4, 1)
    assert ps.coords[:, 0].tolist() == [0.5, 0.25, 0.75, 0.125]


def test_halton_base3_second_axis():
    ps = generate_halton(3, 2)
    expected = [1.0 / 3.0, 2.0 / 3.0, 1.0 / 9.0]
    assert np.allclose(ps.coords[:, 1], expected, rtol=0, atol=1e-15)


def test_halton_matches_scalar_radical_inverse():
    # every axis at once, bit for bit against one point and axis at a time
    def radical_inverse(index, base):
        f, r = 1.0, 0.0
        while index > 0:
            f /= base
            r += f * (index % base)
            index //= base
        return r

    for n, d in [(0, 3), (1, 1), (400, 16)]:
        got = generate_halton(n, d).coords
        want = [[radical_inverse(j + 1, b) for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                                      41, 43, 47, 53)[:d]] for j in range(n)]
        assert got.shape == (n, d) and got.tolist() == want, (n, d)


def test_halton_dim_limit():
    assert generate_halton(2, 16).dim == 16
    with pytest.raises(ValueError):
        generate_halton(2, 17)
    with pytest.raises(ValueError, match="n must be >= 0"):
        generate_halton(-1, 2)


def test_csv_round_trip_exact():
    ps = generate_uniform(32, 4, seed=7)
    text = save_pointset(ps)
    back = load_pointset(text)
    assert np.array_equal(ps.coords, back.coords)
    # serialization is deterministic, so the text round-trips byte for byte
    assert save_pointset(back) == text
    # a blank line between rows is skipped
    assert load_pointset("0.1,0.2\n\n0.3,0.4\n").coords.tolist() == [[0.1, 0.2], [0.3, 0.4]]


def test_csv_empty_needs_dim():
    assert load_pointset("", dim=2).dim == 2
    with pytest.raises(ValueError):
        load_pointset("")


def test_csv_rejects_malformed_input():
    with pytest.raises(ValueError):
        load_pointset("0.1,zzz\n")
    with pytest.raises(ValueError):
        load_pointset("0.1,0.2\n0.3\n")
    with pytest.raises(ValueError):
        load_pointset("0.1,0.2\n", dim=3)
    with pytest.raises(ValueError):
        load_pointset("1.5,0.2\n")
