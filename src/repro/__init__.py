"""repro — Evolutionary scheduling of parallel task graphs onto
homogeneous clusters.

A production-quality reproduction of

    Sascha Hunold and Joachim Lepping,
    "Evolutionary Scheduling of Parallel Tasks Graphs onto Homogeneous
    Clusters", IEEE CLUSTER 2011.

The package implements the paper's **EMTS** algorithm (an evolution
strategy over moldable-task processor allocations), the CPA/HCPA/MCPA
baseline heuristics it compares against, the list-scheduling mapper, the
Amdahl and non-monotone synthetic execution-time models, the FFT /
Strassen / DAGGEN workload generators, a discrete-event schedule
simulator, and the harnesses that regenerate every figure of the paper's
evaluation.

Quickstart
----------
>>> from repro import emts5, grelon, SyntheticModel
>>> from repro.workloads import generate_fft
>>> ptg = generate_fft(8, rng=42)
>>> result = emts5().schedule(ptg, grelon(), SyntheticModel(), rng=42)
>>> result.makespan <= min(result.seed_makespans.values())
True

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-versus-measured record of each experiment.
"""

from . import (
    allocation,
    core,
    ea,
    exceptions,
    experiments,
    graph,
    mapping,
    obs,
    online,
    platform,
    simulator,
    timemodels,
    verify,
    workloads,
)
from .exceptions import (
    CampaignError,
    CheckpointError,
    ReproError,
    TimeModelError,
    TraceError,
    VerificationError,
)
from .allocation import (
    BicpaAllocator,
    CpaAllocator,
    CprAllocator,
    DeltaCriticalAllocator,
    HcpaAllocator,
    Mcpa2Allocator,
    McpaAllocator,
    SerialAllocator,
)
from .core import EMTS, EMTSConfig, EMTSResult, emts5, emts10
from .graph import PTG, PTGBuilder, Task
from .mapping import Schedule, makespan_of, map_allocations
from .platform import Cluster, chti, grelon
from .online import FaultPlan, ReactionPolicy, execute_online
from .simulator import simulate
from .timemodels import (
    AmdahlModel,
    DowneyModel,
    ExecutionTimeModel,
    PdgemmLikeModel,
    SyntheticModel,
    TabulatedModel,
    TimeTable,
)
from .verify import (
    ScheduleVerifier,
    VerifyingEvaluator,
    differential_check,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # subpackages
    "graph",
    "platform",
    "timemodels",
    "workloads",
    "mapping",
    "allocation",
    "ea",
    "core",
    "simulator",
    "experiments",
    "exceptions",
    "verify",
    "obs",
    "online",
    # error hierarchy
    "ReproError",
    "CheckpointError",
    "VerificationError",
    "TimeModelError",
    "CampaignError",
    "TraceError",
    # verification
    "ScheduleVerifier",
    "VerifyingEvaluator",
    "differential_check",
    # core types
    "Task",
    "PTG",
    "PTGBuilder",
    "Cluster",
    "chti",
    "grelon",
    "ExecutionTimeModel",
    "TimeTable",
    "AmdahlModel",
    "SyntheticModel",
    "DowneyModel",
    "TabulatedModel",
    "PdgemmLikeModel",
    "Schedule",
    "map_allocations",
    "makespan_of",
    "SerialAllocator",
    "CpaAllocator",
    "CprAllocator",
    "BicpaAllocator",
    "HcpaAllocator",
    "McpaAllocator",
    "Mcpa2Allocator",
    "DeltaCriticalAllocator",
    "EMTS",
    "EMTSConfig",
    "EMTSResult",
    "emts5",
    "emts10",
    "simulate",
    # online runtime
    "execute_online",
    "FaultPlan",
    "ReactionPolicy",
]
