"""The end-to-end benchmark's own code: inputs, measurement, workloads, tracing."""
