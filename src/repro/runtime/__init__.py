"""Executable middleware: head/master/slave threads over real data.

Functional twin of the simulator — the same scheduler and protocol with
real bytes. Used by the integration tests (distributed result == serial
oracle) and the examples.
"""

from .driver import SLAVE_MODES, CloudBurstingRuntime, RuntimeResult, run_iterative
from .head import HeadNode
from .master import MasterNode
from .procpool import ProcessSlave, ProcessSlavePool
from .slave import SlaveWorker
from .telemetry import ClusterTelemetry, RunTelemetry, SlaveTelemetry, Stopwatch
from .transport import Mailbox

__all__ = [
    "CloudBurstingRuntime",
    "RuntimeResult",
    "run_iterative",
    "SLAVE_MODES",
    "HeadNode",
    "MasterNode",
    "ProcessSlave",
    "ProcessSlavePool",
    "SlaveWorker",
    "ClusterTelemetry",
    "RunTelemetry",
    "SlaveTelemetry",
    "Stopwatch",
    "Mailbox",
]
