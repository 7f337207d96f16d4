"""``--seed`` changes the prompts and nothing else."""

import numpy as np
import pytest

from bench.workloads import WORKLOADS, Job


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_seed_changes_prompts_but_no_shape_or_pin(workload):
    a, b, again = Job(workload, 1), Job(workload, 2), Job(workload, 1)
    assert a.dataset.prompts.shape == b.dataset.prompts.shape
    assert not np.array_equal(a.dataset.prompts, b.dataset.prompts)
    assert np.array_equal(a.dataset.prompts, again.dataset.prompts)
    # the program never sees the seed: identical systems before the first step
    assert a.state_digest() == b.state_digest()
    assert a.workload.pins() == b.workload.pins()
    assert "seed" not in {k for k in workload.pins() if k != "model_seed"}
