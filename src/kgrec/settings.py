"""Every `train` and `synth` setting, declared once: its default, its range
and its CLI flag. The library's dataclasses and init functions take their
defaults from these tables and validate with `check`; `kgrec.cli` builds its
train and synth flags from them and checks each flag with `check` first.

No numpy here, directly or through another kgrec module: the CLI resolves a
config through this module and sets the math libraries' thread caps from it,
and those libraries read their caps once, when numpy is first imported.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple


class Setting(NamedTuple):
    """A default and its bounds: `ge`/`gt` (>=, >) below, `le`/`lt` (<=, <)
    above, None for no bound. `flag` is the CLI flag's key where it differs
    from the library's name; `cli=False` marks a setting with no flag."""

    default: object
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    lt: float | None = None
    flag: str | None = None
    cli: bool = True


# Keyed by the library's field or keyword name, in `kgrec <cmd> --help` order.
TRAIN = {
    "mode": Setting("kmpn"),  # kmpn, ckmpn or content
    "epochs": Setting(300, ge=0),
    "batch_size": Setting(1024, ge=1),  # graph modes only
    "lr_start": Setting(1e-3, flag="lr"),
    "lr_end": Setting(0.0, ge=0),
    "h": Setting(64, ge=1),
    "n_layers": Setting(3, ge=0, flag="layers"),
    "n_pref": Setting(8, ge=1),
    "n_meta": Setting(64, ge=1),
    "pca_keep": Setting(0.5, ge=0, le=1, flag="epsilon"),
    "l2": Setting(1e-5, ge=0, flag="lambda1"),
    "dcorr": Setting(1e-2, ge=0, flag="lambda2"),
    "cross_system": Setting(0.1, ge=0, flag="lambda_cs"),
    "content_items": Setting(None),  # exchange files, mode ckmpn
    "content_users": Setting(None),
    "num_buckets": Setting(4096, ge=1, flag="buckets"),
    "history_size": Setting(8, ge=1),
    "num_negatives": Setting(4, ge=1, flag="negatives"),
    "eval_every": Setting(0, ge=0),  # 0 disables periodic validation logging
    "seed": Setting(0, ge=0),  # every command's --seed
}

SYNTH = {
    "seed": TRAIN["seed"]._replace(default=7),
    "n_users": Setting(200, ge=1, flag="users"),
    "n_items": Setting(300, ge=1, flag="items"),
    "n_clusters": Setting(4, ge=1, flag="clusters"),
    "density": Setting(0.1, gt=0, le=1),
    "cold_user_fraction": Setting(0.03, ge=0, lt=0.5, flag="cold_fraction"),
    "held_out_fraction": Setting(0.2, ge=0, lt=1, flag="held_out"),
    "attrs_per_cluster": Setting(10, ge=1, cli=False),
}

_BOUNDS = (("ge", ">=", operator.ge), ("gt", ">", operator.gt), ("le", "<=", operator.le), ("lt", "<", operator.lt))


def check(name: str, value, setting: Setting) -> None:
    """Raise ValueError("<name> must be ...") unless `value` is finite and within the bounds."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    for attr, symbol, holds in _BOUNDS:
        bound = getattr(setting, attr)
        if bound is not None and not holds(value, bound):
            raise ValueError(f"{name} must be {symbol} {bound}")
