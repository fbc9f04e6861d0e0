"""Benchmark harness configuration.

Every benchmark regenerates one figure of the paper at a reduced scale (so the
suite stays fast) and prints the series it produced; run the experiment
drivers in ``repro.experiments`` directly with their default parameters (or
``python -m repro run <scenario>``) for the full-size campaigns.
"""
