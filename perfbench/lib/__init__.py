"""The relb benchmark's library: build, inputs, workloads and arithmetic."""
