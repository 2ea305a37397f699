"""OmpCloud core: the OpenMP accelerator model with a cloud device.

This package is the paper's contribution proper:

* a directive **front end** (:mod:`~repro.core.lexer`,
  :mod:`~repro.core.parser`, :mod:`~repro.core.omp_ast`,
  :mod:`~repro.core.exprs`) for the pragma dialect of Listings 1-2,
  including the partitioning extension of Section III-B;
* a **libomptarget-style runtime** (:mod:`~repro.core.runtime`,
  :mod:`~repro.core.device`, :mod:`~repro.core.data_env`) with host fallback
  (:mod:`~repro.core.plugin_host`) and the **cloud plugin**
  (:mod:`~repro.core.plugin_cloud`) driven by a configuration file
  (:mod:`~repro.core.config`);
* the **lowering** of annotated loops to Spark jobs: Algorithm 1's tiling
  (:mod:`~repro.core.tiling`), the partition analysis of Eq. 1-3
  (:mod:`~repro.core.partition`) and the map-reduce job generator of
  Eq. 4-10 (:mod:`~repro.core.codegen`);
* the public API (:mod:`~repro.core.api`): :class:`TargetRegion` et al.
"""

from repro.core.buffers import Buffer, OffsetArray, ExecutionMode
from repro.core.exprs import Expr, parse_expr, EvalEnv
from repro.core.omp_ast import (
    MapClause,
    MapItem,
    MapType,
    ParallelForConstruct,
    Pragma,
    ReductionClause,
    TargetConstruct,
    TargetDataConstruct,
)
from repro.core.parser import parse_pragma, DirectiveError
from repro.core.tiling import tile_iterations
from repro.core.partition import PartitionSpec
from repro.core.config import CloudConfig, load_config
from repro.core.api import ParallelLoop, TargetRegion, offload, omp_get_num_devices
from repro.core.runtime import OffloadRuntime, DEVICE_HOST
from repro.core.device import Device
from repro.core.plugin_host import HostDevice
from repro.core.plugin_cloud import CloudDevice
from repro.core.report import OffloadReport
from repro.core.source_scan import region_from_source, scan_source
from repro.core.staging_cache import CacheKey, StagingCache
from repro.core.decorators import OmpKernel, omp_kernel

__all__ = [
    "Buffer",
    "OffsetArray",
    "ExecutionMode",
    "Expr",
    "parse_expr",
    "EvalEnv",
    "MapClause",
    "MapItem",
    "MapType",
    "ParallelForConstruct",
    "Pragma",
    "ReductionClause",
    "TargetConstruct",
    "TargetDataConstruct",
    "parse_pragma",
    "DirectiveError",
    "tile_iterations",
    "PartitionSpec",
    "CloudConfig",
    "load_config",
    "ParallelLoop",
    "TargetRegion",
    "offload",
    "omp_get_num_devices",
    "OffloadRuntime",
    "DEVICE_HOST",
    "Device",
    "HostDevice",
    "CloudDevice",
    "OffloadReport",
    "region_from_source",
    "scan_source",
    "CacheKey",
    "StagingCache",
    "OmpKernel",
    "omp_kernel",
]
