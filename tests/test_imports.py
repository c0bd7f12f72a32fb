"""Start-up guards: each entry point loads only the layers it uses.

``repro`` and ``repro.core`` resolve their exports on first access and
SciPy is imported only when a cell locator builds its KD-tree.  These
tests run fresh interpreters, because an import that something earlier
in the test session already performed would hide exactly the cost (or
the import cycle) they guard against.
"""

import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
import repro.core

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_import_repro_loads_no_numerics():
    out = _run(textwrap.dedent("""
        import sys
        import repro
        repro.__version__
        print(sorted(m for m in ("numpy", "scipy") if m in sys.modules))
    """))
    assert out.strip() == "[]"


def test_cli_help_loads_no_numerics():
    # runpy executes the CLI the way ``python -m repro --help`` does,
    # then the module list is read in the same interpreter.
    out = _run(textwrap.dedent("""
        import runpy, sys
        sys.argv = ["repro", "--help"]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            assert exc.code in (0, None), exc.code
        print(sorted(m for m in ("numpy", "scipy") if m in sys.modules))
    """))
    assert out.strip().splitlines()[-1] == "[]"
    assert "usage" in out.lower()


def test_session_stack_defers_scipy_to_first_locate():
    out = _run(textwrap.dedent("""
        import sys
        from repro import ViracochaSession
        print("scipy" in sys.modules)
    """))
    assert out.strip() == "False"


def test_serve_path_runs_without_scipy_or_grids():
    out = _run(textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # any scipy import now raises
        import repro.serve
        from repro.serve import LoadSpec, run_loadtest, serve_slos
        assert serve_slos()
        report = run_loadtest(LoadSpec(n_tenants=50, seed=3))
        assert report.completed > 0, report
        print(sorted(m for m in sys.modules if m.startswith("repro.grids")))
    """))
    assert out.strip() == "[]"


def _entry_modules() -> list[str]:
    pkgs = [
        f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
    ]
    return sorted(pkgs) + ["repro.viz.client", "repro.obs.slo", "repro.serve.server"]


@pytest.mark.parametrize("module", _entry_modules())
def test_module_imports_on_its_own(module):
    _run(f"import {module}")


@pytest.mark.parametrize("package", [repro, repro.core], ids=lambda p: p.__name__)
def test_lazy_exports_cover_all(package):
    assert set(dir(package)) >= set(package.__all__)
    for name in package.__all__:
        assert getattr(package, name) is not None
    with pytest.raises(AttributeError, match="no attribute"):
        package.not_an_export  # noqa: B018
