"""Performance benchmark of the LS3DF reproduction (see ``bench/README.md``).

``python -m bench`` runs five named workloads against the public API of
``repro`` from outside, checks every output, and reports end-to-end
metrics plus a per-layer trace.  Nothing here is imported by ``repro``.
"""
