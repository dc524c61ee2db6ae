"""Checks on the package's public surface: exports resolve, versioning,
exception hierarchy, and docstring coverage of public items."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import exceptions


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.graph",
            "repro.platform",
            "repro.timemodels",
            "repro.workloads",
            "repro.mapping",
            "repro.allocation",
            "repro.ea",
            "repro.core",
            "repro.simulator",
            "repro.experiments",
            "repro.experiments.figures",
        ],
    )
    def test_subpackage_all_resolves(self, module_name):
        mod = importlib.import_module(module_name)
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module_name}.{name}"


def test_import_does_not_load_scipy():
    """``import repro`` stays light: scipy.stats alone costs about a
    second and 60 MB, and only the confidence intervals need it."""
    code = (
        "import sys, repro, repro.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in exceptions.__all__:
            exc = getattr(exceptions, name)
            assert issubclass(exc, exceptions.ReproError)

    def test_catchable_at_base(self):
        from repro.graph import PTG

        with pytest.raises(exceptions.ReproError):
            PTG([], [])


class TestDocstrings:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.graph",
            "repro.timemodels",
            "repro.mapping",
            "repro.allocation",
            "repro.ea",
            "repro.core",
            "repro.simulator",
            "repro.experiments",
        ],
    )
    def test_public_items_documented(self, module_name):
        mod = importlib.import_module(module_name)
        undocumented = []
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module_name}.{name}")
                if inspect.isclass(obj):
                    for mname, meth in vars(obj).items():
                        if mname.startswith("_"):
                            continue
                        if not inspect.isfunction(meth):
                            continue
                        if (meth.__doc__ or "").strip():
                            continue
                        # overriding a documented base method inherits
                        # its contract — that counts as documented
                        inherited = any(
                            (
                                getattr(
                                    base, mname, None
                                ).__doc__
                                or ""
                            ).strip()
                            for base in obj.__mro__[1:]
                            if getattr(base, mname, None) is not None
                        )
                        if not inherited:
                            undocumented.append(
                                f"{module_name}.{name}.{mname}"
                            )
        assert not undocumented, undocumented

    def test_package_docstring_mentions_paper(self):
        assert "Hunold" in repro.__doc__
        assert "CLUSTER 2011" in repro.__doc__
