"""Adam optimizer over flat parameters ([38], used by the paper §8.1).

Parameters, gradients and the two FP64 moments (standing in for the FP32
optimizer states of mixed-precision training) each live in one flat buffer,
the named tensors being views of it — the contiguous layout Megatron-LM and
FSDP keep, so a step is a handful of in-place ufuncs over the whole model
instead of a dozen per tensor.  Supports gradient clipping by global norm,
which PPO implementations conventionally apply.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.models.autograd import Tensor, _scratch


class FlatParams:
    """Named parameters laid end to end in one flat float64 buffer.

    ``params[name]`` is a :class:`Tensor` whose ``data`` is a view of
    ``data``; ``grads[name]`` is the matching view of the flat ``grad``
    buffer, allocated on first use (a frozen model never has one).
    :meth:`zero_grad` binds those views as the leaves' ``.grad``, so backward
    accumulates into the buffer in place (a leaf's ``.grad``, once it exists,
    is added to).  ``tensors`` are existing parameters to adopt: their
    values move into the buffer, their ``data`` becomes the view.
    """

    def __init__(
        self,
        shapes: Mapping[str, Tuple[int, ...]],
        tensors: Optional[Mapping[str, Tensor]] = None,
    ) -> None:
        self.shapes = dict(shapes)
        #: Element count of each parameter, in layout order.
        self.sizes = [math.prod(shape) for shape in self.shapes.values()]
        self.slices: Dict[str, slice] = {}
        start = 0
        for name, size in zip(self.shapes, self.sizes):
            self.slices[name] = slice(start, start + size)
            start += size
        self.data = np.zeros(start, dtype=np.float64)
        #: The parameters' data by name (views of ``data``).
        self.arrays = self.views(self.data)
        if tensors is None:
            self.params = {
                name: Tensor(arr, requires_grad=True)
                for name, arr in self.arrays.items()
            }
        else:
            for name, t in tensors.items():
                self.arrays[name][...] = t.data
                t.data = self.arrays[name]
            self.params = dict(tensors)

    @functools.cached_property
    def grad(self) -> np.ndarray:
        return np.zeros_like(self.data)

    @functools.cached_property
    def grads(self) -> Dict[str, np.ndarray]:
        return self.views(self.grad)

    def views(self, flat: np.ndarray) -> Dict[str, np.ndarray]:
        """``flat``, a buffer of this layout, as named parameter-shaped views."""
        return {
            name: flat[where].reshape(self.shapes[name])
            for name, where in self.slices.items()
        }

    def zero_grad(self) -> None:
        self.grad.fill(0.0)
        for name, p in self.params.items():
            p.grad = self.grads[name]


class Adam:
    """Classic Adam with bias correction and optional global-norm clipping.

    ``params`` is a :class:`FlatParams` (updated in place) or a dict of
    tensors, which are adopted into one.  A parameter whose ``.grad`` is
    ``None`` is skipped; a gradient not bound to its flat view is copied
    into it first.
    """

    def __init__(
        self,
        params: Union[FlatParams, Dict[str, Tensor]],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        max_grad_norm: Optional[float] = None,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not isinstance(params, FlatParams):
            params = FlatParams({name: t.shape for name, t in params.items()}, params)
        self.flat = params
        self.params = params.params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.max_grad_norm = max_grad_norm
        self.step_count = 0
        self._m_flat = np.zeros_like(params.data)
        self._v_flat = np.zeros_like(params.data)
        self._m = params.views(self._m_flat)
        self._v = params.views(self._v_flat)

    def state_bytes(self) -> int:
        """Optimizer-state footprint (both moments)."""
        return self._m_flat.nbytes + self._v_flat.nbytes

    def _with_grads(self) -> Tuple[List[str], List[slice]]:
        """Names of the parameters with a gradient, each bound to its flat
        view, and the runs of the flat buffers they cover."""
        names: List[str] = []
        runs: List[slice] = []
        for name, p in self.params.items():
            if p.grad is None:
                continue
            view = self.flat.grads[name]
            if p.grad is not view:
                view[...] = p.grad
                p.grad = view
            names.append(name)
            where = self.flat.slices[name]
            if runs and runs[-1].stop == where.start:
                runs[-1] = slice(runs[-1].start, where.stop)
            else:
                runs.append(where)
        return names, runs

    def grad_global_norm(self) -> float:
        names, _ = self._with_grads()
        grad = self.flat.grad
        squares = np.multiply(grad, grad, out=_scratch(len(grad)))
        total = 0.0
        for name in names:
            # summed per tensor: numpy's pairwise summation over a contiguous
            # run adds exactly what ``(grad**2).sum()`` of the tensor does
            total += float(np.add.reduce(squares[self.flat.slices[name]]))
        return float(np.sqrt(total))

    def clip_gradients(self) -> float:
        """Scale all gradients so the global norm is at most ``max_grad_norm``."""
        norm = self.grad_global_norm()
        if self.max_grad_norm is not None and norm > self.max_grad_norm > 0:
            scale = self.max_grad_norm / (norm + 1e-12)
            for run in self._with_grads()[1]:
                self.flat.grad[run] *= scale
        return norm

    def step(self) -> None:
        """Apply one Adam update to every parameter with a gradient, in place."""
        self.clip_gradients()
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for run in self._with_grads()[1]:
            p, grad = self.flat.data[run], self.flat.grad[run]
            m, v = self._m_flat[run], self._v_flat[run]
            a, b = _scratch(len(p)), _scratch(len(p))
            # the per-tensor update, ufunc for ufunc (tests/oracles.py keeps
            # it), over both scratch arrays instead of fresh temporaries
            if self.weight_decay:
                grad = np.add(grad, np.multiply(p, self.weight_decay, out=a), out=a)
            m *= self.beta1
            m += np.multiply(grad, 1.0 - self.beta1, out=b)
            v *= self.beta2
            update = np.multiply(grad, grad, out=b)
            update *= 1.0 - self.beta2
            v += update
            update = np.divide(m, bias1, out=b)  # m_hat
            update *= self.lr
            denom = np.divide(v, bias2, out=a)  # v_hat
            np.sqrt(denom, out=denom)
            denom += self.eps
            update /= denom
            p -= update

    # -- checkpointing --------------------------------------------------------------

    def state_for_checkpoint(self) -> Dict[str, Any]:
        """Step count and both moments (``adam_m::<name>``/``adam_v::<name>``,
        views of the flat moments)."""
        state: Dict[str, Any] = {"optim_step": self.step_count}
        state.update({f"adam_m::{name}": m for name, m in self._m.items()})
        state.update({f"adam_v::{name}": v for name, v in self._v.items()})
        return state

    def load_from_checkpoint(self, state: Mapping[str, Any]) -> None:
        self.step_count = int(state["optim_step"])
        for name in self.params:
            self._m[name][...] = state[f"adam_m::{name}"]
            self._v[name][...] = state[f"adam_v::{name}"]

