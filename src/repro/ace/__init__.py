"""ACE — the Automatic Crash Explorer (bounded workload generation)."""

from .adapter import CrashMonkeyAdapter
from .bounds import (
    Bounds,
    paper_workload_groups,
    seq1_bounds,
    seq2_bounds,
    seq3_data_bounds,
    seq3_metadata_bounds,
    seq3_nested_bounds,
)
from .fileset import FileSet, build_fileset
from .index import SpaceIndex
from .phase1 import count_skeletons, generate_skeletons
from .phase2 import count_parameterizations, parameter_choices, parameterize
from .phase3 import add_persistence_points, count_persistence_variants, persistence_choices
from .phase4 import DependencySteps, resolve_dependencies
from .synthesizer import AceSynthesizer, GenerationStats, generate_workloads, group_siblings

__all__ = [
    "Bounds",
    "seq1_bounds",
    "seq2_bounds",
    "seq3_data_bounds",
    "seq3_metadata_bounds",
    "seq3_nested_bounds",
    "paper_workload_groups",
    "FileSet",
    "build_fileset",
    "generate_skeletons",
    "count_skeletons",
    "parameterize",
    "parameter_choices",
    "count_parameterizations",
    "add_persistence_points",
    "persistence_choices",
    "count_persistence_variants",
    "resolve_dependencies",
    "DependencySteps",
    "AceSynthesizer",
    "SpaceIndex",
    "GenerationStats",
    "generate_workloads",
    "group_siblings",
    "CrashMonkeyAdapter",
]
