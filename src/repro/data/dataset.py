"""Synthetic stand-in for the Dahoas/full-hh-rlhf prompt dataset (§8.1).

The paper's benchmarks fix prompt and response lengths (1024/1024) and only
use the dataset as a prompt source, so a synthetic token stream preserves the
relevant behaviour.  For *functional* RLHF runs the module also defines a
:class:`SyntheticPreferenceTask` with a programmatic ground-truth reward, so
tests can verify that PPO/ReMax/GRPO actually increase reward — the paper's
"from alignment to reasoning" discussion (§9) explicitly endorses replacing
the reward model with a reward function.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

import numpy as np

from repro.data.batch import DataBatch


class PromptDataset:
    """Deterministic synthetic prompts: ``(n_prompts, prompt_length)`` tokens."""

    def __init__(
        self,
        n_prompts: int,
        prompt_length: int,
        vocab_size: int,
        seed: int = 0,
    ) -> None:
        if n_prompts < 1 or prompt_length < 1 or vocab_size < 2:
            raise ValueError(
                f"bad dataset shape: n={n_prompts}, len={prompt_length}, "
                f"vocab={vocab_size}"
            )
        rng = np.random.default_rng(seed)
        self.prompts = rng.integers(
            0, vocab_size, size=(n_prompts, prompt_length), dtype=np.int64
        )
        self.vocab_size = vocab_size

    def __len__(self) -> int:
        return self.prompts.shape[0]

    @property
    def prompt_length(self) -> int:
        return self.prompts.shape[1]

    def batch(self, start: int, size: int) -> DataBatch:
        if start < 0 or start + size > len(self):
            raise IndexError(
                f"batch [{start}, {start + size}) out of range for {len(self)}"
            )
        return DataBatch({"prompts": self.prompts[start : start + size]})

    def iter_batches(
        self, batch_size: int, epochs: int = 1, skip: int = 0
    ) -> Iterator[DataBatch]:
        """Yield full batches; drops the remainder like the paper's loader.

        ``skip`` starts the stream that many batches in — a restored run's
        dataloader position (§9) — without materialising the skipped ones.
        """
        if batch_size < 1 or skip < 0:
            raise ValueError(
                f"need batch_size >= 1 and skip >= 0, got {batch_size}, {skip}"
            )
        per_epoch = len(self) // batch_size
        for index in range(skip, epochs * per_epoch):
            yield self.batch(index % per_epoch * batch_size, batch_size)


@dataclasses.dataclass
class SyntheticPreferenceTask:
    """A toy alignment task with a programmatic ground-truth reward.

    The "human preference" is: responses should repeat the *target token*.
    The reward of a response is the fraction of its tokens equal to
    ``target_token``, scaled to ``[0, reward_scale]``.  A small model can
    learn this quickly, making end-to-end RLHF convergence testable.

    An optional *cost* signal (for Safe-RLHF) penalises the fraction of
    ``unsafe_token`` occurrences.
    """

    vocab_size: int = 32
    target_token: int = 7
    unsafe_token: int = 3
    reward_scale: float = 1.0

    def __post_init__(self) -> None:
        for name in ("target_token", "unsafe_token"):
            tok = getattr(self, name)
            if not 0 <= tok < self.vocab_size:
                raise ValueError(f"{name} {tok} outside vocab {self.vocab_size}")

    def reward(self, responses: np.ndarray) -> np.ndarray:
        """Sample-level reward in ``[0, reward_scale]``; shape ``(batch,)``."""
        responses = np.asarray(responses)
        return (
            (responses == self.target_token).mean(axis=-1) * self.reward_scale
        )

    def cost(self, responses: np.ndarray) -> np.ndarray:
        """Sample-level safety cost in ``[0, 1]``; shape ``(batch,)``."""
        responses = np.asarray(responses)
        return (responses == self.unsafe_token).mean(axis=-1)

    def token_level_reward(self, responses: np.ndarray) -> np.ndarray:
        """Per-token reward (the paper notes rewards can be token-level)."""
        responses = np.asarray(responses)
        return (responses == self.target_token).astype(np.float64) * (
            self.reward_scale / responses.shape[-1]
        )

    def preference_pairs(
        self,
        n_pairs: int,
        response_length: int,
        rng: np.random.Generator,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Sample (chosen, rejected) response pairs labelled by the task.

        The human-preference dataset stand-in for reward-model training
        (§2.1): random responses, ordered by ground-truth reward, with ties
        broken by planting one extra target token in the chosen response.
        """
        if n_pairs < 1 or response_length < 1:
            raise ValueError(
                f"bad pair shape: n={n_pairs}, len={response_length}"
            )
        a = rng.integers(0, self.vocab_size, size=(n_pairs, response_length))
        b = rng.integers(0, self.vocab_size, size=(n_pairs, response_length))
        ra, rb = self.reward(a), self.reward(b)
        chosen = np.where((ra >= rb)[:, None], a, b).astype(np.int64)
        rejected = np.where((ra >= rb)[:, None], b, a).astype(np.int64)
        ties = self.reward(chosen) == self.reward(rejected)
        if ties.any():
            positions = rng.integers(0, response_length, size=int(ties.sum()))
            rows = np.flatnonzero(ties)
            chosen[rows, positions] = self.target_token
            rejected[rows, positions] = (self.target_token + 1) % self.vocab_size
        return chosen, rejected
