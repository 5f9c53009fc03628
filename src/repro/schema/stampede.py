"""Compiled Stampede schema singleton.

Importing this module parses the YANG source and exposes the registry the
rest of the system (engines, loader, validator) shares.  The event-name
and status constants live in :mod:`repro.schema.events`, which is
cheap to import.
"""
from __future__ import annotations

from repro.schema.compiler import SchemaRegistry, compile_module
from repro.schema.events import Events
from repro.schema.yang_source import STAMPEDE_YANG

__all__ = ["STAMPEDE_SCHEMA"]

STAMPEDE_SCHEMA: SchemaRegistry = compile_module(STAMPEDE_YANG)


def _check_schema_complete() -> None:
    """Every constant must have a schema; every schema must have a constant."""
    constants = set(Events.all())
    schemas = set(STAMPEDE_SCHEMA.event_names())
    missing = constants - schemas
    extra = schemas - constants
    if missing or extra:
        raise RuntimeError(
            f"schema/constant mismatch: missing={sorted(missing)} extra={sorted(extra)}"
        )


_check_schema_complete()
