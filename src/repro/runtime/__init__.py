"""Executable middleware: head/master/slave threads over real data.

Functional twin of the simulator — the same scheduler and protocol with
real bytes. Used by the integration tests (distributed result == serial
oracle) and the examples.
"""

from .procpool import ProcessSlavePool

__all__ = ["ProcessSlavePool"]
