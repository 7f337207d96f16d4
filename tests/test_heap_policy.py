"""The process keeps its heap: a worker call's freed temporaries serve the
next call instead of going back to the kernel (``runtime.builder.keep_heap``).

The count runs in a fresh interpreter, so no earlier test can have set the
policy for it, and without ``MALLOC_*`` in its environment, so only the
program's own policy counts.  On the shape below glibc's default policy reads
~11,600 minor faults over three iterations and the kept heap ~55; the
ceiling sits between them, an order of magnitude from each.
"""

import ctypes
import os
import subprocess
import sys

import pytest

CEILING = 1_000

CHILD = """
import resource
from repro.models.tinylm import TinyLMConfig
from repro.runtime import SystemSpec

config = TinyLMConfig(n_layers=2, hidden_size=64, n_heads=4, ffn_hidden_size=128,
                      vocab_size=64, max_seq_len=64)
spec = SystemSpec(model_config=config, max_new_tokens=16, disaggregated=True)
system = spec.build()
batches = spec.dataset().iter_batches(16, epochs=1)
for _ in range(2):
    system.trainer.run_step(next(batches))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    system.trainer.run_step(next(batches))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_steady_iterations_fault_no_pages_back_in():
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    run = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert run.returncode == 0, run.stderr
    faults = int(run.stdout)
    assert faults < CEILING, f"{faults} minor faults over 3 steady iterations"
