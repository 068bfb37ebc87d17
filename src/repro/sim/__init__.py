"""Discrete-event performance simulator: the multi-site testbed substitute.

The simulator runs the identical scheduling policy code as the executable
runtime against calibrated models of the paper's resources (campus storage
node, S3, the WAN, EC2 cores with virtualization jitter) and reproduces the
evaluation's quantities: Figure 3/4 time decompositions, Table I job
assignment, Table II overheads.
"""

from .calibration import PAPER_CALIBRATION, SimCalibration
from .computemodel import ComputeModel
from .engine import AllOf, AnyOf, Environment, Event, Process, Timeout
from .linkmodel import FairShareLink, FlowStats
from .metrics import ClusterReport, SimReport, SlaveMetrics
from .multisite import CrossPath, MultiSiteConfig, MultiSiteSimulation, SiteSpec
from .simnodes import SimMaster, SimSlave
from .simulation import CloudBurstSimulation, simulate
from .storagemodel import SimStore, StorePath

__all__ = [
    "PAPER_CALIBRATION",
    "SimCalibration",
    "ComputeModel",
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "FairShareLink",
    "FlowStats",
    "ClusterReport",
    "SimReport",
    "SlaveMetrics",
    "CrossPath",
    "MultiSiteConfig",
    "MultiSiteSimulation",
    "SiteSpec",
    "SimMaster",
    "SimSlave",
    "CloudBurstSimulation",
    "simulate",
    "SimStore",
    "StorePath",
]
