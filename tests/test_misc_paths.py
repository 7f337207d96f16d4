"""Edge-path tests across modules: less-travelled APIs and error branches."""

import numpy as np
import pytest

from repro.config import (
    ClusterSpec,
    GenParallelConfig,
    RlhfWorkload,
    MODEL_SPECS,
)
from repro.models.tinylm import TinyLMConfig
from repro.parallel.topology import GenGroupingMode
from repro.runtime.timeline import Timeline, TimelineEvent
from repro.single_controller import SingleController, Worker, WorkerGroup, register


class PingWorker(Worker):
    @register(protocol="one_to_all")
    def ping(self):
        return self.ctx.local_rank


class TestWorkerGroupPaths:
    def make(self, n=2):
        controller = SingleController(ClusterSpec(n_machines=1))
        group = WorkerGroup(
            PingWorker, controller.create_pool(n), controller=controller
        )
        return controller, group

    def test_set_gen_topology_after_construction(self):
        _, group = self.make(4)
        group.train_topology = group.train_topology  # unchanged
        gen = GenParallelConfig(pp=1, tp=1, micro_dp=1)
        # world is pure DP: mp size 1, so gen mp must be 1
        group.set_gen_topology(gen, mode=GenGroupingMode.VANILLA)
        assert group.gen_topology is not None
        for worker in group.workers:
            assert worker.ctx.gen_topology is group.gen_topology

    def test_broadcast_call(self):
        _, group = self.make(3)
        ranks = group.broadcast_call(lambda w: w.ctx.global_rank)
        assert ranks == [0, 1, 2]

    def test_private_attribute_lookup_raises_attribute_error(self):
        _, group = self.make(1)
        with pytest.raises(AttributeError):
            group._does_not_exist

    def test_repr_mentions_name_and_shape(self):
        _, group = self.make(2)
        assert "pingworker" in repr(group)

    def test_worker_repr(self):
        _, group = self.make(1)
        assert "rank=0" in repr(group.workers[0])

    def test_default_checkpoint_hooks(self):
        _, group = self.make(1)
        worker = group.workers[0]
        assert worker.state_for_checkpoint() == {}
        worker.load_from_checkpoint({})
        with pytest.raises(NotImplementedError):
            worker.load_from_checkpoint({"x": 1})


class TestTimelinePaths:
    def test_busy_during_partial_overlap(self):
        timeline = Timeline(
            events=[TimelineEvent(0, "a.m", "p", 0.0, 4.0)]
        )
        assert timeline.busy_during("p", 2.0, 6.0) == 2.0
        assert timeline.busy_during("p", 5.0, 6.0) == 0.0
        assert timeline.busy_during("other", 0.0, 4.0) == 0.0

    def test_pools_sorted(self):
        timeline = Timeline(
            events=[
                TimelineEvent(0, "a.m", "z", 0.0, 1.0),
                TimelineEvent(1, "b.m", "a", 0.0, 1.0),
            ]
        )
        assert timeline.pools() == ["a", "z"]


class TestSimulatorValidation:
    def test_memory_model_validation(self):
        from repro.cluster.device import DeviceMemory, SimDevice
        from repro.config import GpuSpec

        with pytest.raises(ValueError):
            DeviceMemory(0, SimDevice(0, 0, GpuSpec()))


class TestConfigPaths:
    def test_model_spec_value_head_variant(self):
        spec = MODEL_SPECS["llama-7b"]
        critic = spec.with_value_head()
        assert critic.name.endswith("-critic")
        assert critic.n_params() == spec.n_params()

    def test_gpu_presets_distinct(self):
        from repro.config import GPU_SPECS

        assert GPU_SPECS["H100-80GB"].peak_flops > GPU_SPECS["A100-80GB"].peak_flops
        assert GPU_SPECS["V100-32GB"].memory_bytes < GPU_SPECS["A100-40GB"].memory_bytes

    def test_gen_parallel_str(self):
        assert str(GenParallelConfig(pp=1, tp=2, micro_dp=4)) == "1-2-4"

    def test_workload_rejects_nothing_but_reports(self):
        wl = RlhfWorkload(prompt_length=10, response_length=6)
        assert wl.seq_length == 16


class TestTinyLMExtraPaths:
    def test_repr_of_tensor(self):
        from repro.models.autograd import Tensor

        t = Tensor(np.zeros(3), requires_grad=True, name="w")
        assert "name='w'" in repr(t)
        assert Tensor(t).requires_grad is False

    def test_stage_memory_properties(self):
        from repro.perf.memory import StageMemory

        stage = StageMemory(params=10, grads=5, optimizer=15, activations=2, kv_cache=3)
        assert stage.persistent == 30
        assert stage.total == 35

    def test_tinylm_config_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            TinyLMConfig(hidden_size=30, n_heads=4)
        with pytest.raises(ValueError, match="head"):
            TinyLMConfig(output_head="regression")
