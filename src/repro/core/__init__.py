"""Stampede analysis tools: statistics, analyzer, time series, anomaly
detection, failure/runtime prediction, and the embedded dashboard."""
