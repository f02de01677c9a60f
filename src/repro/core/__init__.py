"""SpaceFusion core: the SMG abstraction, slicers, and auto-scheduler."""

from .autotuner import TuneResult, tune_kernel
from .builder import build_op_smg, build_smg
from .compiler import (
    CompiledModel,
    CompileError,
    CompileStats,
    FusionOptions,
    SpaceFusionCompiler,
)
from .mappings import A2O, O2A, O2O, Mapping, MappingKind
from .memory_planner import apply_memory_plan, plan_memory_levels
from .partition import partition_round, reorganize_sub_smgs, subgraph_from_ops
from .resources import (
    BlockFootprint,
    BlockResources,
    ResourceConfig,
    check_resources,
    enumerate_configs,
    estimate_block_resources,
)
from .schedule import KernelSchedule, ProgramSchedule, ScheduleConfig
from .scheduler import SlicingOptions, SlicingResult, resource_aware_slicing
from .smg import SMG, SMGError
from .spaces import DataSpace, IterationSpace, SlicedExtent, Space
from .spatial_slicer import SpatialSlicing, slice_spatial, spatial_sliceable_dims
from .temporal_slicer import (
    AggregationPlan,
    ReductionStage,
    TemporalSliceError,
    plan_temporal_slice,
    temporal_dim_candidates,
)
from .update_functions import NormFactor, UpdateFunction, UTAError

__all__ = [
    "A2O", "AggregationPlan", "BlockFootprint", "BlockResources",
    "CompileError",
    "CompileStats", "CompiledModel", "DataSpace", "FusionOptions",
    "IterationSpace", "KernelSchedule", "Mapping", "MappingKind",
    "NormFactor", "O2A", "O2O", "ProgramSchedule", "ReductionStage",
    "ResourceConfig", "SMG", "SMGError", "ScheduleConfig", "SlicedExtent",
    "SlicingOptions", "SlicingResult", "Space", "SpaceFusionCompiler",
    "SpatialSlicing", "TemporalSliceError", "TuneResult", "UTAError",
    "UpdateFunction", "apply_memory_plan", "build_op_smg", "build_smg",
    "check_resources", "enumerate_configs", "estimate_block_resources",
    "partition_round", "plan_memory_levels", "plan_temporal_slice",
    "reorganize_sub_smgs", "resource_aware_slicing", "slice_spatial",
    "spatial_sliceable_dims", "subgraph_from_ops", "temporal_dim_candidates",
    "tune_kernel",
]
