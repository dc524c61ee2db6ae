"""Each entry point imports only the modules it runs.

Package ``__init__`` modules resolve their names on first use
(:mod:`repro._lazy`), the CLI imports per subcommand, and production
code never imports the test harness in :mod:`repro.testing`.  Every
case below runs in a fresh interpreter and checks ``sys.modules``
*after* one operation, so a module dropped from start-up cannot have
moved into the operation instead.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: prints the ``repro`` modules loaded so far as the last stdout line
PRINT_LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules "
    "if m.split('.')[0] == 'repro')))\n"
)

OFFLINE = """
import repro.core, repro.workloads, repro.platform, repro.timemodels
from repro.core import emts5
from repro.platform import grelon
from repro.timemodels import AmdahlModel
from repro.workloads import generate_fft

emts5().schedule(generate_fft(4, rng=1), grelon(), AmdahlModel(), rng=2)
"""

ONLINE = """
import repro.online
from repro.core import make_allocator
from repro.mapping import map_allocations
from repro.online import FaultPlan, ReactionPolicy, execute_online
from repro.platform import grelon
from repro.timemodels import SyntheticModel, TimeTable
from repro.workloads import generate_fft

ptg, cluster = generate_fft(4, rng=1), grelon()
table = TimeTable.build(SyntheticModel(), ptg, cluster)
planned = map_allocations(ptg, table, make_allocator("mcpa").allocate(ptg, table))
plan = FaultPlan.sampled(
    7, ptg.num_tasks, cluster.num_processors, horizon=planned.makespan,
    crash_rate=0.05, failure_rate=0.3, straggler_rate=0.3, max_retries=6,
)
result = execute_online(planned, table, plan=plan, policy=ReactionPolicy(), rng=1)
assert result.reschedules > 0 and result.verified, result
"""

#: runs ``python -m repro serve ...`` and prints the loaded modules the
#: moment the daemon reports that it is listening
SERVE = """
import json, runpy, sys

class AtListening:
    def __init__(self, out):
        self.out = out
    def write(self, text):
        if "listening on" in text:
            mods = sorted(m for m in sys.modules if m.split('.')[0] == 'repro')
            self.out.write("LOADED " + json.dumps(mods) + "\\n")
        return self.out.write(text)
    def flush(self):
        self.out.flush()

sys.stdout = AtListening(sys.stdout)
sys.argv = ["repro", *sys.argv[1:]]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def loaded_after(code: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, "-c", code + PRINT_LOADED],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def under(modules: list[str], packages: tuple[str, ...]) -> list[str]:
    """The members of ``modules`` that are, or live in, one of ``packages``."""
    return [
        m
        for m in modules
        if any(m == p or m.startswith(p + ".") for p in packages)
    ]


def test_offline_run_loads_no_other_entry_point():
    modules = loaded_after(OFFLINE)
    assert "repro.core.emts" in modules
    assert under(
        modules,
        (
            "repro.experiments",
            "repro.online",
            "repro.service",
            "repro.testing",
            "repro.cli",
            "repro.obs.report",
            "repro.obs.assemble",
            "repro.obs.slo",
        ),
    ) == []


def test_online_run_loads_no_other_entry_point():
    modules = loaded_after(ONLINE)
    assert "repro.online.rescheduler" in modules
    assert under(
        modules,
        (
            "repro.experiments",
            "repro.service",
            "repro.testing",
            "repro.cli",
            "repro.obs.report",
            "repro.obs.assemble",
            "repro.obs.slo",
        ),
    ) == []


def test_serve_loads_only_the_service_stack(tmp_path):
    proc = subprocess.Popen(
        [
            sys.executable, "-c", SERVE,
            "serve", "--port", "0", "--spool", str(tmp_path / "spool"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    try:
        modules = None
        for line in proc.stdout:
            if line.startswith("LOADED "):
                modules = json.loads(line[len("LOADED "):])
                break
        assert modules is not None, proc.stderr.read()
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:  # pragma: no cover - hung drain
            proc.kill()
            proc.communicate()
    assert "repro.service.server" in modules
    assert under(
        modules,
        (
            "repro.experiments",
            "repro.online",
            "repro.testing",
            "repro.obs.report",
            "repro.obs.assemble",
            "repro.mapping.gantt",
        ),
    ) == []


LAZY_PACKAGES = (
    "repro",
    "repro.obs",
    "repro.testing",
    "repro.experiments",
    "repro.experiments.figures",
    "repro.graph",
    "repro.mapping",
    "repro.service",
    "repro.timemodels",
    "repro.verify",
    "repro.workloads",
)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    mod = importlib.import_module(package)
    listed = dir(mod)
    for name in mod.__all__:
        assert name in listed, f"{package}.{name}"
        assert getattr(mod, name) is not None, f"{package}.{name}"


def test_lazy_namespace_behaves_like_an_eager_one():
    import repro.obs
    import repro.obs.slo
    from repro.obs import slo

    assert slo is repro.obs.slo
    assert repro.obs.Tracer is importlib.import_module("repro.obs.trace").Tracer
    with pytest.raises(AttributeError):
        repro.obs.no_such_name
    assert not hasattr(repro.obs, "no_such_name")
    with pytest.raises(ImportError):
        from repro.obs import no_such_name  # noqa: F401


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of every module ``path`` imports, anywhere in it."""
    # a module's package, and an __init__'s own package: both the parent
    package = list(path.relative_to(SRC).parts[:-1])
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_production_code_imports_no_test_code():
    testing = SRC / "repro" / "testing"
    offenders = sorted(
        str(path.relative_to(SRC))
        for path in (SRC / "repro").rglob("*.py")
        if testing not in path.parents
        and any(
            m == "repro.testing" or m.startswith("repro.testing.")
            for m in _imported_modules(path)
        )
    )
    assert offenders == []
