"""NetLogger Toolkit substrate: BP log format, typed events, streams, filters."""
