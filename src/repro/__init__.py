"""repro — a reproduction of VIRACOCHA (SC 2004).

A parallelization framework for large-scale CFD post-processing in
virtual environments: a data management system (two-tier caching,
prefetching, adaptive loading strategies) and streaming of partial
results, evaluated on multi-block curvilinear CFD datasets.

Quick start::

    from repro import ViracochaSession, build_engine

    session = ViracochaSession(build_engine(base_resolution=5), n_workers=4)
    result = session.run(
        "iso-viewer",
        params={"isovalue": -0.3, "scalar": "pressure",
                "time_range": (0, 2), "viewpoint": (0, 0, -5)},
    )
    print(result.latency, result.total_runtime, result.geometry)

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-figure reproductions.

The public names resolve on first access: ``import repro`` loads no
NumPy or SciPy, so an entry point pays only for the layers it uses.
"""

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".core.session": ("CommandResult", "ViracochaSession"),
    ".parallel": ("ParallelExtractor",),
    ".synth.engine": ("build_engine",),
    ".synth.propfan": ("build_propfan",),
})

__version__ = "1.0.0"

__all__ = [
    "CommandResult",
    "ParallelExtractor",
    "ViracochaSession",
    "build_engine",
    "build_propfan",
    "__version__",
]
