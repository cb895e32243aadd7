import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rissim import (
    ArrayGeometry,
    DegenerateGeometryError,
    Pose,
    cartesian_to_spherical,
    exact_distances,
    spherical_to_cartesian,
)


def test_spherical_to_cartesian_on_axis():
    assert spherical_to_cartesian(1.0, 0.0, 0.7) == pytest.approx((0.0, 0.0, 1.0))


def test_spherical_to_cartesian_hand_value():
    x, y, z = spherical_to_cartesian(2.4, math.radians(30.0), 0.0)
    assert x == pytest.approx(2.4 * 0.5, rel=1e-12)
    assert y == 0.0
    assert z == pytest.approx(2.4 * math.sqrt(3.0) / 2.0, rel=1e-12)
    assert z == pytest.approx(2.0785, abs=1e-4)


def test_negative_range_rejected():
    with pytest.raises(ValueError):
        spherical_to_cartesian(-0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        Pose.from_spherical(-1.0, 0.0, 0.0)


def test_round_trip_fixed_point():
    d, th, ph = cartesian_to_spherical(0.3, -0.4, 1.2)
    assert spherical_to_cartesian(d, th, ph) == pytest.approx((0.3, -0.4, 1.2), rel=1e-12)


@given(
    x=st.floats(-10, 10),
    y=st.floats(-10, 10),
    z=st.floats(-10, 10),
)
def test_round_trip_property(x, y, z):
    d, th, ph = cartesian_to_spherical(x, y, z)
    assert d >= 0
    xx, yy, zz = spherical_to_cartesian(d, th, ph)
    scale = max(d, 1e-30)
    assert abs(xx - x) <= 1e-12 * scale
    assert abs(yy - y) <= 1e-12 * scale
    assert abs(zz - z) <= 1e-12 * scale


def test_pose_consistency_enforced():
    with pytest.raises(ValueError):
        Pose(x=1.0, y=0.0, z=0.0, range=1.0, polar=0.0, azimuth=0.0)
    # the same values built through the constructor are fine
    p = Pose.from_cartesian(1.0, 0.0, 0.0)
    assert p.polar == pytest.approx(math.pi / 2)


@pytest.mark.parametrize("nx,ny,dx,dy", [(1, 1, 4.9e-3, 4.9e-3), (3, 5, 3.1e-3, 4.9e-3),
                                         (16, 16, 4.9e-3, 4.9e-3)])
def test_element_grid_is_cached_read_only(nx, ny, dx, dy):
    geom = ArrayGeometry(nx, ny, dx, dy)
    xe, ye = geom.element_grid()
    fresh = np.meshgrid((np.arange(nx) - (nx - 1) / 2) * dx, (np.arange(ny) - (ny - 1) / 2) * dy,
                        indexing="ij")
    np.testing.assert_array_equal(xe, fresh[0])
    np.testing.assert_array_equal(ye, fresh[1])
    assert geom.element_grid()[0] is xe
    with pytest.raises(ValueError):
        xe[0, 0] = 1.0
    with pytest.raises(ValueError):
        ye[-1, -1] = 1.0


def test_element_position_corner(panel16):
    xe, ye = panel16.element_grid()
    assert (xe[0, 0], ye[0, 0]) == pytest.approx((-36.75e-3, -36.75e-3))


def test_element_position_center_odd():
    xe, ye = ArrayGeometry(17, 17).element_grid()
    assert (xe[8, 8], ye[8, 8]) == (0.0, 0.0)


@pytest.mark.parametrize("m,n", [(0, 0), (3, 7), (15, 1)])
def test_element_position_mirror_symmetry(panel16, m, n):
    xe, ye = panel16.element_grid()
    mirror = (panel16.num_x - 1 - m, panel16.num_y - 1 - n)
    assert (xe[m, n], ye[m, n]) == pytest.approx((-xe[mirror], -ye[mirror]))


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 3), (16, 16), (17, 5)])
def test_positions_sum_to_origin(nx, ny):
    geom = ArrayGeometry(nx, ny, 3.1e-3, 4.9e-3)
    xe, ye = geom.element_grid()
    assert abs(xe.sum()) < 1e-12
    assert abs(ye.sum()) < 1e-12
    assert geom.offsets_x().sum() == pytest.approx(0.0, abs=1e-12)


def test_exact_distance_center_element():
    geom = ArrayGeometry(17, 17)
    rx = Pose.from_spherical(0.05, 0.0, 0.0)
    assert exact_distances(rx, geom)[8, 8] == pytest.approx(0.05, rel=1e-12)


def test_exact_distance_corner(panel16):
    rx = Pose.from_spherical(0.05, 0.0, 0.0)
    expected = math.sqrt(0.05**2 + 2 * 0.03675**2)
    assert exact_distances(rx, panel16)[15, 15] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.07212, abs=5e-6)


def test_exact_distances_never_below_z(panel16):
    rx = Pose.from_cartesian(0.01, -0.02, 0.05)
    assert np.all(exact_distances(rx, panel16) >= 0.05)


def test_exact_distance_degenerate(panel16):
    xe, ye = panel16.element_grid()
    x, y = xe[4, 9], ye[4, 9]
    for z in (0.0, 1e-200):  # 1e-200 ** 2 underflows to 0.0, so the distance itself is 0
        with pytest.raises(DegenerateGeometryError):
            exact_distances(Pose.from_cartesian(x, y, z), panel16)


@pytest.mark.parametrize("geom", [ArrayGeometry(16, 16), ArrayGeometry(15, 7, 3.1e-3, 4.9e-3),
                                  ArrayGeometry(1, 1)], ids=["16x16", "15x7", "1x1"])
def test_exact_distances_equal_the_full_grid_formula(geom):
    xe, ye = geom.element_grid()
    for point in (Pose.from_cartesian(0.013, -0.021, 0.05), Pose.from_spherical(2.6, 0.9, 4.0),
                  Pose.from_cartesian(-0.3, 0.0, 1e-3)):
        grid = np.sqrt((point.x - xe) ** 2 + (point.y - ye) ** 2 + point.z**2)
        assert np.array_equal(exact_distances(point, geom), grid)


def test_exact_distance_relabel_invariance(panel16):
    point = Pose.from_cartesian(0.13, -0.07, 0.4)
    flipped = Pose.from_cartesian(-0.13, 0.07, 0.4)
    d = exact_distances(point, panel16)
    assert np.allclose(d, exact_distances(flipped, panel16)[::-1, ::-1], rtol=1e-14)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(0, 4)
    with pytest.raises(ValueError):
        ArrayGeometry(4, 4, spacing_x=0.0)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(count=st.floats(allow_nan=True, allow_infinity=True).filter(lambda c: not c.is_integer()))
def test_geometry_rejects_non_integer_counts(count):
    with pytest.raises(ValueError, match="num_x"):
        ArrayGeometry(count, 3)
    with pytest.raises(ValueError, match="num_y"):
        ArrayGeometry(3, count)


@given(flag=st.booleans())
def test_geometry_rejects_bool_counts(flag):
    with pytest.raises(ValueError, match="num_x"):
        ArrayGeometry(flag, 3)
    with pytest.raises(ValueError, match="num_y"):
        ArrayGeometry(3, flag)


@given(nx=st.integers(1, 64), ny=st.integers(1, 64))
def test_geometry_accepts_integer_counts(nx, ny):
    geom = ArrayGeometry(np.int64(nx), ny)
    assert geom.num_elements == nx * ny
    assert geom.offsets_x().size == nx


@given(bad=NON_FINITE | st.floats(max_value=0.0))
def test_geometry_rejects_non_finite_or_non_positive_spacing(bad):
    with pytest.raises(ValueError, match="spacing_x"):
        ArrayGeometry(4, 4, spacing_x=bad)
    with pytest.raises(ValueError, match="spacing_y"):
        ArrayGeometry(4, 4, spacing_y=bad)


@given(
    field=st.sampled_from(["range", "polar", "azimuth"]),
    bad=NON_FINITE,
    good=st.tuples(st.floats(0.0, 10.0), st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
)
def test_pose_from_spherical_rejects_non_finite(field, bad, good):
    args = dict(zip(("range", "polar", "azimuth"), good))
    args[field] = bad
    with pytest.raises(ValueError, match=field):
        Pose.from_spherical(args["range"], args["polar"], args["azimuth"])


def test_pose_rejects_non_finite_cartesian():
    with pytest.raises(ValueError, match="x must be finite"):
        Pose(x=math.nan, y=0.0, z=1.0, range=1.0, polar=0.0, azimuth=0.0)
    with pytest.raises(ValueError, match="z must be finite"):
        Pose.from_cartesian(0.0, 0.0, math.inf)
