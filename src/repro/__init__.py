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

from ._lazy import lazy_namespace

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

__getattr__, __dir__ = lazy_namespace(
    globals(),
    {
        ".exceptions": (
            "CampaignError",
            "CheckpointError",
            "ReproError",
            "TimeModelError",
            "TraceError",
            "VerificationError",
        ),
        ".allocation": (
            "BicpaAllocator",
            "CpaAllocator",
            "CprAllocator",
            "DeltaCriticalAllocator",
            "HcpaAllocator",
            "Mcpa2Allocator",
            "McpaAllocator",
            "SerialAllocator",
        ),
        ".core": ("EMTS", "EMTSConfig", "EMTSResult", "emts5", "emts10"),
        ".graph": ("PTG", "PTGBuilder", "Task"),
        ".mapping": ("Schedule", "makespan_of", "map_allocations"),
        ".platform": ("Cluster", "chti", "grelon"),
        ".online": ("FaultPlan", "ReactionPolicy", "execute_online"),
        ".simulator": ("simulate",),
        ".timemodels": (
            "AmdahlModel",
            "DowneyModel",
            "ExecutionTimeModel",
            "PdgemmLikeModel",
            "SyntheticModel",
            "TabulatedModel",
            "TimeTable",
        ),
        ".verify": (
            "ScheduleVerifier",
            "VerifyingEvaluator",
            "differential_check",
        ),
    },
)
