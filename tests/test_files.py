import json

import numpy as np
import pytest

import curvecharts as cc
from curvecharts import shapes
from curvecharts.files import FORMAT_VERSION, curve_from_dict, curve_to_dict


def test_round_trip_euclidean(tmp_path, circle64):
    p = tmp_path / "circle.json"
    cc.save_curve(circle64, str(p))
    y = cc.load_curve(str(p))
    assert y.space == circle64.space
    np.testing.assert_array_equal(y.pts, circle64.pts)


def test_round_trip_torus_restores_lift(tmp_path):
    x = shapes.torus_geodesic(64, (2, 1), wiggle=0.05, seed=1)
    p = tmp_path / "geo.json"
    cc.save_curve(x, str(p))
    y = cc.load_curve(str(p))
    np.testing.assert_array_equal(y.winding, [2, 1])
    # stored samples are wrapped representatives; the lift is rebuilt so
    # that all derived quantities agree exactly
    assert cc.length(y) == pytest.approx(cc.length(x), abs=1e-12)
    assert cc.image_distance(x, y) <= 1e-9
    np.testing.assert_allclose(np.diff(y.pts, axis=0), np.diff(x.pts, axis=0),
                               atol=1e-12)


def test_round_trip_sphere(tmp_path, great_circle96):
    p = tmp_path / "gc.json"
    cc.save_curve(great_circle96, str(p))
    y = cc.load_curve(str(p))
    np.testing.assert_array_equal(y.pts, great_circle96.pts)
    assert y.space == great_circle96.space


def test_dict_payload_fields(circle64):
    d = curve_to_dict(circle64)
    assert d["version"] == FORMAT_VERSION
    assert d["grid"] == 64
    assert np.asarray(d["points"]).shape == (64, 2)
    assert d["ambient"] == circle64.space.to_spec()
    json.dumps(d)  # payload must be plain-JSON serializable


def test_dict_rejects_bad_version(circle64):
    # True == 1 in Python: the version is read by the integer rule of `grid` and `dim`
    for version in (999, True, "1", None):
        d = curve_to_dict(circle64)
        d["version"] = version
        with pytest.raises(ValueError):
            curve_from_dict(d)


def test_dict_rejects_shape_mismatch(circle64):
    d = curve_to_dict(circle64)
    d["grid"] = 32
    with pytest.raises(ValueError):
        curve_from_dict(d)


def test_torus_dict_requires_winding():
    x = shapes.torus_geodesic(64, (1, 0))
    d = curve_to_dict(x)
    del d["winding"]
    with pytest.raises(ValueError):
        curve_from_dict(d)


def test_save_is_deterministic(tmp_path, circle64):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cc.save_curve(circle64, str(a))
    cc.save_curve(circle64, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_dict_rejects_a_winding_the_samples_do_not_have():
    d = curve_to_dict(shapes.torus_geodesic(64, (1, 0)))
    d["winding"] = [0, 1]
    with pytest.raises(ValueError, match="inconsistent with unwrapped samples"):
        curve_from_dict(d)
