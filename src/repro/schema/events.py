"""Canonical Stampede event names and termination status codes.

The constants mirror the YANG containers of :mod:`repro.schema.yang_source`
so producers don't scatter string literals; :mod:`repro.schema.stampede`
checks that the two agree when it compiles the schema.  This module
imports nothing, so code that only needs the names does not pay for
that compile.
"""
from __future__ import annotations

__all__ = ["Events", "SUCCESS", "FAILURE", "INCOMPLETE"]

# Termination status codes used throughout the data model.
SUCCESS = 0
FAILURE = -1
INCOMPLETE = -2


class Events:
    """Canonical Stampede event names (mirrors the YANG containers)."""

    WF_PLAN = "stampede.wf.plan"
    STATIC_START = "stampede.static.start"
    STATIC_END = "stampede.static.end"
    XWF_START = "stampede.xwf.start"
    XWF_END = "stampede.xwf.end"
    TASK_INFO = "stampede.task.info"
    TASK_EDGE = "stampede.task.edge"
    JOB_INFO = "stampede.job.info"
    JOB_EDGE = "stampede.job.edge"
    MAP_TASK_JOB = "stampede.wf.map.task_job"
    MAP_SUBWF_JOB = "stampede.xwf.map.subwf_job"
    JOB_INST_PRE_START = "stampede.job_inst.pre.start"
    JOB_INST_PRE_TERM = "stampede.job_inst.pre.term"
    JOB_INST_PRE_END = "stampede.job_inst.pre.end"
    JOB_INST_SUBMIT_START = "stampede.job_inst.submit.start"
    JOB_INST_SUBMIT_END = "stampede.job_inst.submit.end"
    JOB_INST_HELD_START = "stampede.job_inst.held.start"
    JOB_INST_HELD_END = "stampede.job_inst.held.end"
    JOB_INST_MAIN_START = "stampede.job_inst.main.start"
    JOB_INST_MAIN_TERM = "stampede.job_inst.main.term"
    JOB_INST_MAIN_END = "stampede.job_inst.main.end"
    JOB_INST_POST_START = "stampede.job_inst.post.start"
    JOB_INST_POST_TERM = "stampede.job_inst.post.term"
    JOB_INST_POST_END = "stampede.job_inst.post.end"
    JOB_INST_HOST_INFO = "stampede.job_inst.host.info"
    JOB_INST_IMAGE_INFO = "stampede.job_inst.image.info"
    JOB_INST_ABORT_INFO = "stampede.job_inst.abort.info"
    INV_START = "stampede.inv.start"
    INV_END = "stampede.inv.end"

    @classmethod
    def all(cls):
        return [
            value
            for name, value in vars(cls).items()
            if not name.startswith("_") and isinstance(value, str)
        ]
