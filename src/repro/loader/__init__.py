"""High-performance log loading: nl_load front-end, stampede_loader module,
and the monitord real-time file follower."""
