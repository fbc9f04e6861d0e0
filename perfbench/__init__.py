"""Whole-workload benchmark of the RPC-V simulator (see ``run.py``)."""
