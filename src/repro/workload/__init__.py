"""Workload representation: operations, containers, the text language, executor."""

from . import operations as ops
from .executor import WorkloadExecutor
from .language import format_workload, parse_line, parse_workload
from .operations import Operation, OpKind, WriteRange, payload_for
from .workload import Workload, make_workload

__all__ = [
    "ops",
    "Operation",
    "OpKind",
    "WriteRange",
    "Workload",
    "make_workload",
    "WorkloadExecutor",
    "payload_for",
    "parse_workload",
    "parse_line",
    "format_workload",
]
