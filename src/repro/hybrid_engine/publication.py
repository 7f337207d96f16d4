"""Non-blocking weight publication from trainer to rollout engine.

The async one-step-off pipeline (:mod:`repro.pipeline`) breaks the
synchronous loop's implicit weight hand-off: in the synchronous loop the
generator trivially sees the newest policy because generation and training
alternate on the same shards.  Once rollout for iteration *t+1* overlaps
training of iteration *t*, the hand-off must become explicit — and it must
not block the decode loop, or the overlap is lost.

:class:`WeightPublisher` models the double-buffered protocol real systems
use:

* ``publish(version)`` — called by the trainer after each optimizer step.
  It *stages* the new weights for the generator (writes the version's
  snapshot slot) and returns immediately; the decode loop keeps running on
  the previously active snapshot.  The bytes a publication ships are what
  executing the memoized train→generation
  :func:`~repro.hybrid_engine.engine.plan_transition` moves — publication
  reuses the §5.2 all-gather plan and the engine's own byte count rather
  than inventing a second resharding path.
* ``acquire()`` — called at a generate-call boundary.  The engine flips the
  staged snapshot to active and tags every sequence it produces with that
  policy version.  Switching only at call boundaries is what keeps a batch's
  behaviour policy well-defined (one version per batch, never a mid-batch
  mix).

Each snapshot slot is a distinct resource in the controller's access log
(``pipeline/weights[v{n}]``): the trainer's publish is the only WRITE and
every rollout acquire is a READ that happens-after it, so the RC5xx race
detector can *prove* the overlapped schedule sound — the writes the trainer
makes for version *t+1* never touch the snapshot version *t* decodes from.
"""

from __future__ import annotations

from repro.hybrid_engine.engine import gather_bytes_per_rank, plan_transition
from repro.single_controller.access_log import READ, WRITE


class WeightPublisher:
    """Double-buffered trainer→generator weight hand-off over one group.

    Args:
        group: The actor :class:`~repro.single_controller.WorkerGroup`
            (must carry a generation topology — the publication plan is the
            train→gen transition plan).
    """

    def __init__(self, group) -> None:
        if group.gen_topology is None:
            raise ValueError(
                f"worker group {group.name!r} has no generation topology; "
                "weight publication needs the train->gen transition plan"
            )
        self.group = group
        self._staged = 0
        self._active = 0
        self.publications = 0
        self.acquisitions = 0
        self.bytes_published = 0

    # -- introspection ---------------------------------------------------------------

    @property
    def staged_version(self) -> int:
        """Newest version published by the trainer (not yet decoding)."""
        return self._staged

    @property
    def active_version(self) -> int:
        """Version the decode loop currently generates with."""
        return self._active

    def publish_bytes_per_version(self) -> int:
        """Bytes one publication ships: the transition plan's gather volume.

        The same plan and the same
        :func:`~repro.hybrid_engine.engine.gather_bytes_per_rank` that
        :meth:`~repro.hybrid_engine.engine.HybridEngine3D.to_generation`
        meters, summed over ranks (a rank's own resting shard never moves).
        """
        shards = {w.ctx.global_rank: w.shard for w in self.group.workers}
        plan = plan_transition(self.group.gen_topology)
        return sum(gather_bytes_per_rank(plan, shards).values())

    # -- the protocol ----------------------------------------------------------------

    def publish(self, version: int) -> int:
        """Stage ``version`` for the generator without blocking decode.

        Returns the bytes shipped.  Versions must be published in
        increasing order — a republication of an older version would let a
        batch regress to an earlier behaviour policy.
        """
        if version <= self._staged and self.publications > 0:
            raise ValueError(
                f"publish version {version} is not newer than the staged "
                f"version {self._staged}"
            )
        nbytes = self.publish_bytes_per_version()
        group = self.group
        group.record_access(
            WRITE,
            f"pipeline/weights[v{version}]",
            note=f"publish policy version {version}",
        )
        group.tracer.instant(
            f"{group.name}.publish[v{version}]",
            category="pipeline",
            version=version,
            payload_bytes=nbytes,
            staged_behind=version - self._active,
        )
        group.metrics.counter(
            "repro_pipeline_publications_total",
            "Policy-weight publications from trainer to generator",
        ).inc()
        group.metrics.counter(
            "repro_pipeline_published_bytes_total",
            "Bytes shipped by weight publications",
        ).inc(nbytes)
        self._staged = version
        self.publications += 1
        self.bytes_published += nbytes
        return nbytes

    def acquire(self) -> int:
        """Flip the staged snapshot to active at a generate-call boundary.

        Returns the version every sequence of the next generate call must be
        tagged with (its behaviour policy).
        """
        self._active = self._staged
        self.group.record_access(
            READ,
            f"pipeline/weights[v{self._active}]",
            note=f"rollout acquires policy version {self._active}",
        )
        self.acquisitions += 1
        return self._active

    def state_dict(self) -> dict:
        return {
            "staged": self._staged,
            "active": self._active,
            "publications": self.publications,
            "acquisitions": self.acquisitions,
            "bytes_published": self.bytes_published,
        }

    def load_state_dict(self, state: dict) -> None:
        self._staged = int(state["staged"])
        self._active = int(state["active"])
        self.publications = int(state["publications"])
        self.acquisitions = int(state["acquisitions"])
        self.bytes_published = int(state["bytes_published"])


__all__ = ["WeightPublisher"]
