"""Shared utilities: time formats, deterministic UUIDs, virtual clock,
graphs, and the shared retry/backoff policy."""
