"""Adam with a linear learning-rate schedule, over named tensor dicts.

Tensors that `pack` laid out in one buffer are updated as that buffer, one
update per ADAM_BLOCK block, not one per tensor: the content model steps
once per click instance and three of its tensors hold a few dozen values.
The graph model is not packed, as copying its large gradients into one
buffer every batch would cost more than the per-tensor calls it saves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .losses import LossWeights
from .settings import TRAIN, check

BETA1 = 0.9  # Adam first-moment decay
BETA2 = 0.999  # Adam second-moment decay
ADAM_EPS = 1e-8  # added to the bias-corrected root second moment
ADAM_BLOCK = 16384  # elements per block of an update: about 128 KB per array


@dataclass
class TrainConfig:
    epochs: int = TRAIN["epochs"].default
    batch_size: int = TRAIN["batch_size"].default
    lr_start: float = TRAIN["lr_start"].default
    lr_end: float = TRAIN["lr_end"].default
    weights: LossWeights = field(default_factory=LossWeights)
    seed: int = TRAIN["seed"].default
    eval_every: int = TRAIN["eval_every"].default

    def validate(self) -> None:
        for f in fields(self):
            if f.name in TRAIN:
                check(f.name, getattr(self, f.name), TRAIN[f.name])
        if not self.lr_start >= self.lr_end:
            raise ValueError("need lr_start >= lr_end")
        self.weights.validate()


def lr_at(config: TrainConfig, step: int, total_steps: int) -> float:
    """Linear interpolation from lr_start (step 0) to lr_end (step = total)."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not (0 <= step <= total_steps):
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return config.lr_start + (config.lr_end - config.lr_start) * (step / total_steps)


@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0
    packed: tuple = ()  # the tensors init_adam was given, when `pack` laid them out


def pack(tensors: dict) -> dict:
    """Copies of `tensors`, in order, as views of one new flat float64 buffer."""
    flat = np.empty(sum(t.size for t in tensors.values()))
    views, at = {}, 0
    for name, t in tensors.items():
        views[name] = flat[at : at + t.size].reshape(t.shape)
        views[name][...] = t
        at += t.size
    return views


def _packed(views: tuple) -> bool:
    """Whether `views` fill one flat buffer whole and in order, as `pack` lays them out."""
    flat = views[0].base if views else None
    if not isinstance(flat, np.ndarray) or flat.ndim != 1:
        return False
    at = flat.__array_interface__["data"][0]
    for t in views:
        if t.base is not flat or not t.flags.c_contiguous or t.__array_interface__["data"][0] != at:
            return False
        at += t.nbytes
    return at == flat.__array_interface__["data"][0] + flat.nbytes


def init_adam(tensors: dict) -> AdamState:
    """Zero moments, each set `pack`ed into one buffer in the order of `tensors`."""
    zeros = {k: np.zeros(t.shape) for k, t in tensors.items()}
    views = tuple(tensors.values())
    return AdamState(m=pack(zeros), v=pack(zeros), packed=views if _packed(views) else ())


def _adam_rows(param, g, m, v, lr: float, c1: float, c2: float) -> None:
    """Adam's update of a block of rows, in place, built in one scratch array:
    bit for bit lr * (m / c1) / (sqrt(v / c2) + eps)."""
    scratch = np.empty_like(param)
    m *= BETA1
    m += np.multiply(g, 1.0 - BETA1, out=scratch)
    v *= BETA2
    np.multiply(g, g, out=scratch)
    scratch *= 1.0 - BETA2
    v += scratch
    np.divide(v, c2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    param -= np.divide(lr * (m / c1), scratch, out=scratch)


def adam_step(tensors: dict, grads: dict, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place on `tensors`, with the fixed
    β1 = BETA1 = 0.9, β2 = BETA2 = 0.999 and ε = ADAM_EPS = 1e-8; a bad
    gradient is raised before any tensor, moment or the step count changes.
    The packed set `init_adam` was given is updated as one buffer, any other
    tensor by tensor: the same elementwise update, bit for bit."""
    for name, param in tensors.items():
        g = grads[name]
        if g.shape != param.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient in {name}")
    state.step += 1
    c1, c2 = 1.0 - BETA1**state.step, 1.0 - BETA2**state.step  # bias corrections
    views = tuple(tensors.values())
    if state.packed and len(views) == len(state.packed) and all(a is b for a, b in zip(views, state.packed)):
        first = next(iter(tensors))
        g = np.concatenate([grads[name].reshape(-1) for name in tensors])  # the gradient in the same layout
        sets = [(tensors[first].base, g, state.m[first].base, state.v[first].base)]
    else:
        sets = [(param, grads[name], state.m[name], state.v[name]) for name, param in tensors.items()]
    for arrays in sets:
        param = arrays[0]
        rows = max(1, ADAM_BLOCK * len(param) // max(1, param.size))
        whole = rows >= len(param)  # one block, used whole: slicing costs as much as a small update
        for a in range(0, len(param), rows):  # row blocks: each block's passes run in cache
            _adam_rows(*(arrays if whole else [x[a : a + rows] for x in arrays]), lr, c1, c2)
