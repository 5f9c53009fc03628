"""Stampede event schema: YANG source, compiler, registry and validator."""
