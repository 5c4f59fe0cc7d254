import os
import shutil
import subprocess
import sys
from pathlib import Path

# One BLAS/OpenMP thread unless the caller chose a count: the suite's calls
# are small, and thread hand-offs cost more than they save on them. Set
# before numpy loads; the CLI processes the tests start inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import kgrec  # noqa: E402
from kgrec.data import SPLIT_NAMES, DatasetBundle, SyntheticSpec, _assemble, make_synthetic_dataset  # noqa: E402

SRC = Path(kgrec.__file__).resolve().parents[1]  # the import root of the kgrec under test


@pytest.fixture(scope="session")
def synth_bundle():
    """Default clustered dataset, seed 7 (the reference instance)."""
    store, graph, corpus = make_synthetic_dataset(SyntheticSpec(), seed=7)
    return DatasetBundle(store=store, graph=graph, corpus=corpus)


@pytest.fixture(scope="session")
def synth_dir(synth_bundle, tmp_path_factory):
    from kgrec.data import save_bundle

    path = tmp_path_factory.mktemp("dataset")
    save_bundle(synth_bundle, path)
    return path


def build_store(train, valid=None, test=None, cold_history=None, cold_test=None, num_users=None, num_items=None):
    """The InteractionStore of per-user mappings (user id -> item ids), one
    per split: their (user, item) columns go through `data._assemble`."""
    columns = {}
    for name, mapping in zip(SPLIT_NAMES, (train, valid, test, cold_history, cold_test)):
        rows = [np.asarray(list(items), dtype=np.int64).reshape(-1) for items in (mapping or {}).values()]
        users = np.fromiter(mapping or {}, dtype=np.int64)
        columns[name] = np.repeat(users, [len(r) for r in rows]), np.concatenate([*rows, np.empty(0, dtype=np.int64)])
    return _assemble(columns, num_users, num_items)


def run_cli(*args, cwd=None):
    """Invoke the installed console script (module fallback, with the kgrec
    under test first on PYTHONPATH)."""
    exe = shutil.which("kgrec")
    cmd = [exe] if exe else [sys.executable, "-m", "kgrec.cli"]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        cmd + [str(a) for a in args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def rng_of(seed):
    return np.random.default_rng(seed)


def score_row_grads(trace, d_pos, d_neg):
    """(d_user_rows, d_item_rows) for model.backward from per-triple score
    gradients [B]: a score is <user row, item row>, so each row's gradient
    is the score gradient times the other row."""
    item_rows, B = trace.item_rows(), len(d_pos)
    d_user_rows = d_pos[:, None] * item_rows[:B] + d_neg[:, None] * item_rows[B:]
    d_item_rows = np.concatenate([d_pos, d_neg])[:, None] * np.tile(trace.user_rows(), (2, 1))
    return d_user_rows, d_item_rows
