"""Real-time detection of when a user needs assistance.

Gaze-pattern models and an utterance classifier each emit a continuous
need value; a sliding-window random forest fuses them into a binary
help decision.  Includes the stream substrate, session persistence,
two-stage training, a session simulator, an evaluation harness, and a
command-line interface.
"""

import os

# No code here calls BLAS, yet numpy's bundled OpenBLAS starts one worker
# thread per extra core when numpy loads, and on 2 cores the worker spins
# for ~75 ms of CPU that every short-lived `run` or `train` pays at start.
# With one thread it starts none.  This module runs before any of ours
# imports numpy, and a value already set in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
