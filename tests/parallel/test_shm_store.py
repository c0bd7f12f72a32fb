"""ShmBlockStore: shared segments, zero-copy views, manifests, cleanup."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.lambda2 import lambda2_field
from repro.dms.source import StoreSource, SyntheticSource
from repro.grids.block import LazyStructuredBlock
from repro.parallel import ShmBlockStore
from tests.conftest import cached_engine


def _segment_paths(store: ShmBlockStore) -> list[str]:
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    names = [shm.name for shm in store._all_segments()]
    return ["/dev/shm/" + name.lstrip("/") for name in names]


def test_from_store_blocks_match_disk(engine_store):
    with ShmBlockStore.from_store(engine_store) as shm:
        assert shm.n_blocks == engine_store.n_blocks
        assert shm.time_indices == [0, 1]
        for t in range(2):
            for b in range(engine_store.n_blocks):
                ours = shm.get_block(t, b)
                ref = engine_store.read_block(t, b, lazy=True)
                assert isinstance(ours, LazyStructuredBlock)
                assert ours.coords.tobytes() == ref.coords.tobytes()
                for name in ref.fields:
                    assert (
                        ours.fields[name].tobytes() == ref.fields[name].tobytes()
                    )


def test_views_are_read_only_and_zero_copy(engine_store):
    with ShmBlockStore.from_store(engine_store, time_indices=[0]) as shm:
        block = shm.get_block(0, 0)
        assert not block.coords.flags.writeable
        raw = block.fields.raw_view("pressure")
        assert raw is not None
        assert not raw.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            raw[0, 0, 0] = 1.0
        # Two reads view the same shared pages, not copies.
        again = shm.get_block(0, 0)
        assert np.shares_memory(
            raw, again.fields.raw_view("pressure")
        ) or raw.tobytes() == again.fields.raw_view("pressure").tobytes()


def test_from_source_synthetic_round_trips():
    eng = cached_engine(4, 2)
    with ShmBlockStore.from_source(SyntheticSource(eng), time_indices=[0]) as shm:
        block = shm.get_block(0, 0)
        ref = eng.build_block(0, 0)
        # Serialization canonicalizes fields to <f4 — compare at f4.
        for name in ref.fields:
            np.testing.assert_array_equal(
                np.asarray(block.fields[name], dtype=np.float32),
                np.asarray(ref.fields[name], dtype=np.float32),
            )
        np.testing.assert_array_equal(block.coords, ref.coords)


def test_manifest_attach_same_process(engine_store):
    with ShmBlockStore.from_store(engine_store, time_indices=[0]) as owner:
        manifest = owner.manifest()
        attached = ShmBlockStore.attach(manifest)
        try:
            a = attached.get_block(0, 1)
            b = owner.get_block(0, 1)
            assert a.coords.tobytes() == b.coords.tobytes()
            assert attached.handles(0)[1].block_id == 1
        finally:
            attached.close()
        # Attached stores never unlink someone else's segments.
        attached.unlink()
        assert owner.get_block(0, 1) is not None


def test_derived_fields_are_float64_and_shared(engine_store):
    with ShmBlockStore.from_store(engine_store, time_indices=[0]) as shm:
        block = shm.get_block(0, 0)
        lam = lambda2_field(block, "velocity")
        shm.add_derived_field(0, 0, "lambda2", lam)
        assert shm.derived_fields(0, 0) == ["lambda2"]
        enriched = shm.get_block(0, 0)
        raw = enriched.fields.raw_view("lambda2")
        assert raw.dtype == np.float64
        assert not raw.flags.writeable
        # Byte-identical to in-place computation: the reuse fast path in
        # the vortex command cannot change results.
        assert enriched.fields["lambda2"].tobytes() == lam.tobytes()
        manifest = shm.manifest()
        assert (0, 0) in manifest["derived"]


def test_cleanup_retires_all_segments(engine_store):
    shm = ShmBlockStore.from_store(engine_store, time_indices=[0])
    shm.add_derived_field(0, 0, "lambda2", lambda2_field(shm.get_block(0, 0)))
    paths = _segment_paths(shm)
    assert paths and all(os.path.exists(p) for p in paths)
    shm.cleanup()
    assert not any(os.path.exists(p) for p in paths)
    # Idempotent.
    shm.cleanup()


def test_unknown_block_raises(engine_store):
    with ShmBlockStore.from_store(engine_store, time_indices=[0]) as shm:
        with pytest.raises(KeyError):
            shm.get_block(1, 0)
        with pytest.raises(KeyError):
            shm.add_derived_field(7, 0, "lambda2", np.zeros((2, 2, 2)))


def test_block_payloads_share_one_segment(engine_store):
    with ShmBlockStore.from_store(engine_store) as shm:
        assert len(shm.keys()) == 2 * engine_store.n_blocks
        assert shm.n_segments == 1
        shm.add_derived_field(0, 0, "lambda2", lambda2_field(shm.get_block(0, 0)))
        assert shm.n_segments == 2
        sizes = sum(
            engine_store.block_path(t, b).stat().st_size for t, b in shm.keys()
        )
        assert shm.nbytes == sizes + 8 * shm.get_block(0, 0).n_points


#: 144 propfan blocks x 7 steps: 1,008 blocks under a 256-file limit.
_LOW_FD_SCRIPT = textwrap.dedent("""
    import resource
    resource.setrlimit(resource.RLIMIT_NOFILE, (256, 256))

    from repro import ParallelExtractor, build_propfan
    from repro.bench.experiments import ISO_LEVELS
    from repro.dms.source import SyntheticSource
    from repro.parallel import ShmBlockStore

    dataset = build_propfan(base_resolution=3, n_timesteps=7)
    store = ShmBlockStore.from_source(SyntheticSource(dataset))
    assert len(store.keys()) >= 1000, len(store.keys())
    params = {"isovalue": ISO_LEVELS["propfan"], "scalar": "pressure",
              "time_range": (0, 7)}
    try:
        with ParallelExtractor(store, workers=2, executor="process") as ext:
            multi = ext.run("iso-dataman", params=params).result
        with ParallelExtractor(store, workers=2, executor="serial") as ext:
            serial = ext.run("iso-dataman", params=params).result
    finally:
        store.cleanup()
    assert multi.n_triangles > 0
    assert multi.vertices.tobytes() == serial.vertices.tobytes()
    assert multi.triangles.tobytes() == serial.triangles.tobytes()
    print("OK", len(store.keys()))
""")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_NOFILE semantics")
def test_thousand_blocks_fit_a_low_open_file_limit():
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _LOW_FD_SCRIPT],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("OK")
    assert "leaked shared_memory" not in proc.stderr


def _psm_entries() -> set[str]:
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


class _FailingSource:
    """A store-backed source whose ``fail_at``-th payload read raises."""

    def __init__(self, store, fail_at: int, zero_copy: bool):
        self._inner = StoreSource(store)
        self._fail_at = fail_at
        self._reads = 0
        for attr in ("name", "times", "n_timesteps", "item_sequence", "handles"):
            setattr(self, attr, getattr(self._inner, attr))
        if zero_copy:
            self.get_bytes = lambda item: self._read(self._inner.get_bytes, item)

    def _read(self, fn, item):
        self._reads += 1
        if self._reads == self._fail_at:
            raise OSError("disk went away")
        return fn(item)

    def get(self, item):
        return self._read(self._inner.get, item)


@pytest.mark.parametrize(
    "zero_copy, fail_at",
    [(False, 3), (True, 3), (True, 2 * 23 + 5)],
    ids=["serializing", "sizing", "filling"],
)
def test_failed_build_leaves_no_segment(engine_store, zero_copy, fail_at):
    """Failing while sizing or mid-fill: nothing is left in /dev/shm."""
    assert engine_store.n_blocks == 23
    before = _psm_entries()
    source = _FailingSource(engine_store, fail_at, zero_copy)
    with pytest.raises(OSError, match="disk went away"):
        ShmBlockStore.from_source(source)
    assert _psm_entries() <= before
