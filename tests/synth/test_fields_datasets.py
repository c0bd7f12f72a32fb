"""Tests for analytic fields and the Engine / Propfan dataset builders."""

import numpy as np
import pytest

from repro.synth import (
    ABCFlowField,
    BYTES_PER_POINT,
    CounterRotatingFanField,
    ENGINE_TABLE1,
    PROPFAN_TABLE1,
    SwirlTumbleField,
    TaylorGreenField,
    build_engine,
    build_propfan,
    cartesian_lattice,
    engine_block_layout,
    fit_modeled_shapes,
    propfan_block_layout,
    warp_lattice,
)

FIELDS = [TaylorGreenField(), ABCFlowField(), SwirlTumbleField(), CounterRotatingFanField()]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: type(f).__name__)
def test_field_shapes(field):
    pts = np.random.default_rng(0).uniform(-1, 1, size=(4, 5, 3))
    v = field.velocity(pts, 0.3)
    p = field.pressure(pts, 0.3)
    assert v.shape == (4, 5, 3)
    assert p.shape == (4, 5)
    assert np.isfinite(v).all() and np.isfinite(p).all()


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: type(f).__name__)
def test_field_deterministic(field):
    pts = np.random.default_rng(1).uniform(-1, 1, size=(10, 3))
    np.testing.assert_array_equal(field.velocity(pts, 0.7), field.velocity(pts, 0.7))


def test_taylor_green_is_divergence_free_discretely():
    """TG velocity is analytically divergence-free; check spectral-ish."""
    n = 17
    lat = cartesian_lattice((0, 0, 0), (1, 1, 1), (n, n, n))
    f = TaylorGreenField()
    v = f.velocity(lat, 0.0)
    h = 1.0 / (n - 1)
    div = (
        np.gradient(v[..., 0], h, axis=0)
        + np.gradient(v[..., 1], h, axis=1)
        + np.gradient(v[..., 2], h, axis=2)
    )
    assert np.abs(div[2:-2, 2:-2, 2:-2]).max() < 0.05 * np.abs(v).max()


def test_fields_are_unsteady():
    pts = np.array([[0.3, 0.2, 0.5]])
    for field in FIELDS:
        v0 = field.velocity(pts, 0.0)
        v1 = field.velocity(pts, 0.9)
        assert not np.allclose(v0, v1)


def test_counter_rotating_swirl_flips_sign():
    f = CounterRotatingFanField()
    up = np.array([[0.7, 0.0, -0.8]])  # stage 1
    down = np.array([[0.7, 0.0, 0.8]])  # stage 2
    v_up = f.velocity(up, 0.0)[0]
    v_down = f.velocity(down, 0.0)[0]
    # Azimuthal velocity at (r, 0, z) is the y component.
    assert np.sign(v_up[1]) != np.sign(v_down[1])


def test_warp_lattice_bounded_displacement():
    lat = cartesian_lattice((0, 0, 0), (1, 1, 1), (6, 6, 6))
    warped = warp_lattice(lat, amplitude=0.05)
    assert np.abs(warped - lat).max() <= 0.05 + 1e-12


# --------------------------------------------------------- fit_modeled


def test_fit_modeled_shapes_hits_target():
    shapes = [(5, 5, 5)] * 10
    target = 500 * 1024 * 1024
    modeled = fit_modeled_shapes(shapes, target, n_timesteps=20)
    total = sum(a * b * c for a, b, c in modeled) * 20 * BYTES_PER_POINT
    assert total == pytest.approx(target, rel=0.05)


def test_fit_modeled_shapes_rejects_bad_target():
    with pytest.raises(ValueError):
        fit_modeled_shapes([(3, 3, 3)], 0, 1)


# ------------------------------------------------------------ datasets


def test_engine_layout_has_23_blocks():
    assert len(engine_block_layout()) == 23


def test_propfan_layout_has_144_blocks():
    assert len(propfan_block_layout()) == 144


@pytest.fixture(scope="module")
def engine():
    return build_engine(base_resolution=5, n_timesteps=5)


@pytest.fixture(scope="module")
def propfan():
    return build_propfan(base_resolution=4, n_timesteps=3)


def test_engine_matches_table1_block_count(engine):
    assert engine.spec.n_blocks == ENGINE_TABLE1["n_blocks"]


def test_engine_full_spec_matches_table1_size():
    full = build_engine(base_resolution=5)  # full 63 steps, lattices lazy enough
    assert full.spec.n_timesteps == ENGINE_TABLE1["n_timesteps"]
    assert full.spec.size_on_disk == pytest.approx(
        ENGINE_TABLE1["size_on_disk"], rel=0.05
    )


def test_propfan_full_spec_matches_table1_size():
    full = build_propfan(base_resolution=4)
    assert full.spec.n_timesteps == PROPFAN_TABLE1["n_timesteps"]
    assert full.spec.n_blocks == PROPFAN_TABLE1["n_blocks"]
    assert full.spec.size_on_disk == pytest.approx(
        PROPFAN_TABLE1["size_on_disk"], rel=0.05
    )


@pytest.mark.parametrize("which", ["engine", "propfan"])
def test_block_bytes_matches_modeled_list(which, request):
    spec = request.getfixturevalue(which).spec
    table = spec.modeled_block_bytes
    assert [spec.block_bytes(b) for b in range(spec.n_blocks)] == table
    assert spec.block_bytes(-1) == table[-1]
    with pytest.raises(IndexError):
        spec.block_bytes(spec.n_blocks)


def test_engine_level_builds_all_blocks(engine):
    level = engine.level(0)
    assert len(level) == 23
    assert level.field_names() == ["pressure", "velocity"]


def test_engine_blocks_are_time_dependent(engine):
    b0 = engine.build_block(0, 0)
    b1 = engine.build_block(3, 0)
    assert not np.allclose(b0.field("velocity"), b1.field("velocity"))
    np.testing.assert_array_equal(b0.coords, b1.coords)


def test_engine_handles_cover_domain(engine):
    handles = engine.handles()
    assert len(handles) == 23
    lows = np.array([h.bounds_min for h in handles])
    highs = np.array([h.bounds_max for h in handles])
    assert lows.min(axis=0)[2] == pytest.approx(0.0, abs=0.05)
    assert highs.max(axis=0)[2] == pytest.approx(2.1, abs=0.05)


def test_engine_handles_at_later_time(engine):
    h0 = engine.handles(0)[0]
    h5 = engine.handles(4)[0]
    assert h5.time_index == 4
    assert h5.bounds_min == h0.bounds_min


def test_propfan_blocks_tile_annulus(propfan):
    level = propfan.level(0)
    assert len(level) == 144
    bb = level.bounds()
    # The annulus has outer radius 1.0.
    assert bb[1][0] == pytest.approx(1.0, abs=0.02)
    assert bb[0][0] == pytest.approx(-1.0, abs=0.02)


def test_dataset_index_errors(engine):
    with pytest.raises(IndexError):
        engine.build_block(999, 0)
    with pytest.raises(IndexError):
        engine.build_block(0, 999)


def test_timeseries_roundtrip(engine):
    ts = engine.timeseries()
    assert len(ts) == 5
    level = ts.level(2)
    assert level.time == pytest.approx(2 * engine.spec.dt)
