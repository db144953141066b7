"""perfbench: the one benchmark every performance or simplicity claim in
this repository is measured with (see ``perfbench/README.md``).

Five pinned workloads drive the NVRAM-cache simulator through its public
functions only; nothing under ``src/`` knows this package exists.
"""
