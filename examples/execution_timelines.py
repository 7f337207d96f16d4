"""Execution patterns under different placements (Figure 3 / Table 1).

Runs one functional PPO iteration under three placements and renders the
per-pool Gantt chart the single controller's trace implies under the
asynchronous-execution semantics of §4.1:

* **colocate** — every stage serialises on one pool (DeepSpeed-Chat's
  pattern in Table 1),
* **split** — actor/reference vs critic/reward pools overlap within the
  preparation and learning stages (NeMo-Aligner's pattern),
* **standalone** — every model on its own pool: maximal overlap, maximal
  idle time (OpenRLHF's pattern; Figure 3's "1/3 of their GPU time idle").

Run:  python examples/execution_timelines.py
"""

from repro.config import GenParallelConfig, ParallelConfig
from repro.data import PromptDataset, SyntheticPreferenceTask
from repro.rlhf import AlgoType
from repro.runtime import TINY_LM, PlacementPlan, build_rlhf_system
from repro.runtime.timeline import build_timeline

PAR = ParallelConfig(1, 2, 1)
RFN = (ParallelConfig(1, 1, 1), ["reward"])  # the reward function's one GPU
TASK = SyntheticPreferenceTask(vocab_size=16)

# §8.3's three placements, as groupings of the models onto pools
PLACEMENTS = {
    "colocate": {"shared": (PAR, ["actor", "critic", "reference"]), "rfn": RFN},
    "split": {
        "actor_side": (PAR, ["actor", "reference"]),
        "critic_side": (PAR, ["critic"]),
        "rfn": RFN,
    },
    "standalone": {
        "p_actor": (PAR, ["actor"]),
        "p_critic": (PAR, ["critic"]),
        "p_ref": (PAR, ["reference"]),
        "rfn": RFN,
    },
}


def main() -> None:
    prompts = PromptDataset(32, 4, 16, seed=1)
    for kind, groups in PLACEMENTS.items():
        system = build_rlhf_system(
            AlgoType.PPO,
            PlacementPlan.grouped(groups, GenParallelConfig.derive(PAR, 1, 1)),
            TINY_LM,
            reward_fn=TASK.reward,
            max_new_tokens=5,
        )
        system.trainer.train(prompts, 1, 8)
        timeline = build_timeline(
            system.controller.trace, system.controller.planned_duration
        )
        print(f"\n=== placement: {kind} (one PPO iteration) ===")
        print(timeline.render_ascii(width=60))
        print(f"makespan: {timeline.makespan:.1f} simulated units")


if __name__ == "__main__":
    main()
