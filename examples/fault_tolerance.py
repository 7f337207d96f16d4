"""Fault tolerance (§9): checkpoint, crash, and bit-exact recovery.

"Our programming model enables the single controller to coordinate
checkpoint operations via RPC, allowing the saving of model states within
each ParallelWorker Group.  This includes saving parameters of actor/critic
models, dataloader IDs, and Random Number Generator (RNG) states to ensure
system-wide consistency."

Part 1 trains PPO for a few iterations, checkpoints, simulates a full
job loss (the entire controller and every worker discarded), rebuilds the
system from scratch, restores, and shows the resumed run reproducing the
uninterrupted trajectory *exactly* — same rewards, same weights.

Part 2 goes further: a :class:`~repro.faults.FaultInjector` kills a whole
machine mid-training, and :func:`~repro.runtime.train_with_recovery` detects
the loss, re-places the job on the surviving devices, restores the last
atomic checkpoint, and finishes the run — still bit-exact, with the
recovery cost (lost work, restore, re-init) accounted on the simulated
clock.

Run:  python examples/fault_tolerance.py
"""

import tempfile

import numpy as np

from repro.config import ClusterSpec
from repro.faults import FaultInjector, FaultPlan
from repro.runtime import SystemSpec, train_with_recovery

# the shipped PPO job: models colocated on main[tp2], function reward on r
JOB = SystemSpec()


def rewards(history):
    return [round(h["score_mean"], 3) for h in history]


def main() -> None:
    dataset = JOB.dataset()

    print("reference run: 6 uninterrupted PPO iterations")
    reference = JOB.build()
    ref_history = reference.trainer.train(dataset, 6, 8)
    print("  rewards:", rewards(ref_history))

    with tempfile.TemporaryDirectory() as ckpt_dir:
        print("\ninterrupted run: 3 iterations, checkpoint, simulated crash")
        first = JOB.build()
        first.trainer.train(dataset, 3, 8)
        first.controller.save_checkpoint(ckpt_dir)
        trainer_state = first.trainer.state_dict()
        del first  # the whole job is gone

        print("recovery: rebuild from scratch, restore checkpoint, resume")
        resumed = JOB.build()
        resumed.controller.load_checkpoint(ckpt_dir)
        resumed.trainer.load_state_dict(trainer_state)
        # the trainer state carries the dataloader position: batch 3 is next
        resumed_history = resumed.trainer.train(dataset, 3, 8)[3:]

    print("  resumed rewards:  ", rewards(resumed_history))
    print("  reference rewards:", rewards(ref_history[3:]))
    assert rewards(resumed_history) == rewards(ref_history[3:]), "recovery diverged!"

    ref_state = reference.groups["actor"].workers[0].materialize_full_state()
    res_state = resumed.groups["actor"].workers[0].materialize_full_state()
    max_diff = max(
        float(np.abs(ref_state[name] - res_state[name]).max())
        for name in ref_state
    )
    print(f"  max |weight difference| vs uninterrupted run: {max_diff:.1e}")
    assert reference.state_equal(resumed), "weights, optimizer or rng diverged!"
    print("\nrecovery is bit-exact: parameters, optimizer, RNG, dataloader.")

    # -- part 2: automatic recovery from a machine loss mid-training --------
    print("\nautomatic recovery: a whole machine dies mid-training")
    spec = ClusterSpec(n_machines=2, gpus_per_machine=4)  # spare capacity
    injector = FaultInjector(FaultPlan().kill_machine(0, at_step=30))
    with tempfile.TemporaryDirectory() as ckpt_dir:
        system, history, report = train_with_recovery(
            lambda cluster: JOB.build(cluster, spec),
            dataset,
            n_iterations=6,
            batch_size=8,
            checkpoint_dir=ckpt_dir,
            checkpoint_every=1,
            injector=injector,
        )
    for line in report.summary_lines():
        print("  " + line)
    survivors = sorted(
        w.ctx.device.global_rank for w in system.groups["actor"].workers
    )
    print(f"  actor re-placed on surviving GPUs {survivors}")
    print("  recovered rewards:   ", rewards(history))
    print("  uninterrupted rewards:", rewards(ref_history))
    assert system.state_equal(reference), "automatic recovery diverged!"
    print("\nmachine loss survived; trajectory identical to the failure-free run.")


if __name__ == "__main__":
    main()
