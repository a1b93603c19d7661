"""Compatibility stub: the kernels have one numpy/scipy implementation.

``perfbench/run.py`` imports ``sigdecomp._accel`` and reads
``NUMBA_ENABLED`` into its machine facts; this module stays only for that
reader and goes once the benchmark stops importing it.
"""

NUMBA_ENABLED = False
