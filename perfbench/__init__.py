"""End-to-end benchmark of the RPLS verifier (see README.md in this directory).

The benchmark drives ``repro`` only through its public API: it generates
seeded request streams, times the calls it makes into each layer, and checks
every output it receives.  Run it with ``python3 perfbench/run.py``.
"""
