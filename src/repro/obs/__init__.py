"""repro.obs: self-monitoring for the monitoring pipeline.

The paper's system watches workflows; this package watches the system —
metrics primitives (:mod:`repro.obs.metrics`), trace spans and pipeline
latency stamps (:mod:`repro.obs.spans`), exporters for Prometheus
scraping and BP self-logging (:mod:`repro.obs.export`), and collector
binders for the bus/loader/fault layers (:mod:`repro.obs.instrument`).
"""
