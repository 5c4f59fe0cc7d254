import math
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import SRC
from scipy import special

from kgrec.content import init_content, load_content_checkpoint, save_content_checkpoint
from kgrec.model import CHECKPOINT_MAGIC, init_params, load_checkpoint, save_checkpoint
from kgrec.numeric import (
    read_tensor_file,
    segment_sum,
    sigmoid,
    softmax_rows,
    softplus,
    write_tensor_file,
    write_text_atomic,
)


def test_sigmoid_anchors():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(np.log(3.0)) == pytest.approx(0.75, rel=1e-14)
    x = np.array([-2.0, 0.0, 2.0])
    np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), np.ones(3), rtol=1e-14)


def test_sigmoid_extreme_arguments_stay_finite():
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == 0.0
    big = sigmoid(np.array([-750.0, 750.0]))
    assert np.isfinite(big).all()
    np.testing.assert_allclose(sigmoid(np.array([-30.0])), [math.exp(-30.0)], rtol=1e-10)


def test_sigmoid_matches_scipy():
    x = np.linspace(-40, 40, 101)
    np.testing.assert_allclose(sigmoid(x), special.expit(x), rtol=1e-14)


def branch_sigmoid(x):
    """The two-branch formula, by boolean masks."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bits_equal_the_branch_formula():
    rng = np.random.default_rng(3)
    special_values = [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 1e-320, -1e-320, np.nan]
    x = np.concatenate([rng.normal(scale=s, size=20_000) for s in (0.1, 1.0, 10.0, 100.0, 1000.0)] + [special_values])
    got, want = sigmoid(x), branch_sigmoid(x)
    assert np.array_equal(got, want, equal_nan=True)
    real = ~np.isnan(x)  # only a NaN's sign and payload bits may differ
    assert np.array_equal(got[real].view(np.int64), want[real].view(np.int64))
    assert sigmoid(-0.0) == 0.5 and isinstance(sigmoid(2.0), float)


def test_softplus_anchors_and_stability():
    assert softplus(0.0) == pytest.approx(math.log(2.0), rel=1e-14)
    assert softplus(-1000.0) == 0.0
    assert softplus(1000.0) == pytest.approx(1000.0, rel=1e-14)
    x = np.linspace(-30, 30, 61)
    np.testing.assert_allclose(softplus(x), np.log1p(np.exp(x)), rtol=1e-12)


def test_softmax_rows_anchors():
    out = softmax_rows(np.array([[0.0, 0.0], [0.0, math.log(3.0)]]))
    np.testing.assert_allclose(out[0], [0.5, 0.5], rtol=1e-14)
    np.testing.assert_allclose(out[1], [0.25, 0.75], rtol=1e-14)
    np.testing.assert_allclose(out.sum(axis=1), [1.0, 1.0], rtol=1e-14)


def test_softmax_rows_shift_invariance_and_stability():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 5))
    np.testing.assert_allclose(softmax_rows(x), softmax_rows(x + 123.0), rtol=1e-12)
    huge = softmax_rows(np.array([[1e4, 1e4 + 1.0]]))
    assert np.isfinite(huge).all()
    np.testing.assert_allclose(huge[0], special.softmax(np.array([0.0, 1.0])), rtol=1e-12)


def test_tensor_file_write_failure_keeps_earlier_checkpoint(tmp_path):
    path = tmp_path / "checkpoint.kmpn"
    save_checkpoint(init_params(6, 2, 3, h=4, n_layers=1, n_pref=2, n_meta=2, seed=0), path)
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.kmpn"]
    before = path.read_bytes()

    def tensors_then_crash():
        yield np.ones((3, 4))
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError, match="disk full"):
        write_tensor_file(path, CHECKPOINT_MAGIC, (1, 2, 3), tensors_then_crash())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.kmpn"]


def test_tensor_file_reads_without_a_second_copy(tmp_path):
    path = tmp_path / "t.bin"
    big = np.random.default_rng(0).normal(size=(512, 512))  # 2 MiB
    small = np.arange(6, dtype=np.float32).reshape(2, 3)
    write_tensor_file(path, "TEST1", (512,), [big.T, small])  # a strided view and a float32 array
    assert path.read_bytes() == b"TEST1 512\n" + big.T.astype("<f8").tobytes() + small.astype("<f8").tobytes()
    tracemalloc.start()
    try:
        header, tensors = read_tensor_file(path, "TEST1", 1, lambda n: [(n, n), (2, 3)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert header == [512]
    assert np.array_equal(tensors[0], big.T) and np.array_equal(tensors[1], small)
    assert all(t.dtype == np.float64 and t.flags.c_contiguous for t in tensors)
    assert peak < big.nbytes + 64 * 1024, f"traced peak {peak} B for a {big.nbytes} B payload"


@pytest.mark.parametrize("rows", [2**40, 2**61], ids=["huge", "int64-wrap"])
@pytest.mark.parametrize("kind", ["kmpn", "content"])
def test_header_sizes_checked_against_file_size(tmp_path, kind, rows):
    # at h=8, 2**61 rows hold 2**64 floats: an int64 product of the shape wraps to 0
    path = tmp_path / f"c.{kind}"
    if kind == "kmpn":
        save_checkpoint(init_params(6, 2, 3, h=8, n_layers=1, n_pref=2, n_meta=2, seed=0), path)
        load = load_checkpoint
    else:
        save_content_checkpoint(init_content(h=8, num_buckets=6, seed=0), path)
        load = load_content_checkpoint
    header, _, payload = path.read_bytes().partition(b"\n")
    fields = header.split()
    fields[1] = str(rows).encode()  # entity or bucket count
    path.write_bytes(b" ".join(fields) + b"\n" + payload)
    with pytest.raises(ValueError) as err:
        load(path)
    assert str(err.value) == f"{path}: truncated checkpoint"


@pytest.mark.parametrize(
    "kind, header, payload",
    [
        # h = 2**62: every tensor is empty, so the 0-byte payload matches, but
        # numpy refuses shape (0, 2**62) of float64 as larger than memory
        ("kmpn", b"KMPN1 0 0 0 4611686018427387904 1 0 0", b""),
        # 2**62 buckets of width 0: only the (1,) bias holds a value
        ("content", b"CLIT1 4611686018427387904 0 1 1", np.zeros(1).tobytes()),
    ],
)
def test_zero_size_header_with_huge_side_names_file(tmp_path, kind, header, payload):
    path = tmp_path / f"c.{kind}"
    path.write_bytes(header + b"\n" + payload)
    load = load_checkpoint if kind == "kmpn" else load_content_checkpoint
    with pytest.raises(ValueError) as err:
        load(path)
    assert str(err.value) == f"{path}: malformed checkpoint header"


def add_at_reference(index, values, n):
    out = np.zeros((n,) + np.shape(values)[1:])
    np.add.at(out, np.asarray(index, dtype=np.int64), values)
    return out


@pytest.mark.parametrize("width", [None, 1, 4])
def test_segment_sum_matches_add_at(width):
    rng = np.random.default_rng(5)
    index = np.array([3, 0, 3, 3, 5, 0, 3])  # repeats; rows 1, 2, 4, 6 never hit
    shape = (len(index),) if width is None else (len(index), width)
    values = rng.normal(size=shape)
    out = segment_sum(index, values, 7)
    assert out.shape == (7,) + shape[1:]
    np.testing.assert_allclose(out, add_at_reference(index, values, 7), rtol=1e-14)
    assert np.all(out[[1, 2, 4, 6]] == 0.0)


def test_segment_sum_empty_index():
    out = segment_sum(np.array([], dtype=np.int64), np.zeros((0, 3)), 4)
    np.testing.assert_array_equal(out, np.zeros((4, 3)))
    np.testing.assert_array_equal(segment_sum([], np.zeros(0), 2), np.zeros(2))


def test_text_write_failure_keeps_earlier_file(tmp_path):
    path = tmp_path / "loss.log"
    write_text_atomic(path, "1\t0.5\n")
    assert path.read_bytes() == b"1\t0.5\n"
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(path, "2\t\ud800\n")  # a lone surrogate cannot be encoded
    assert path.read_bytes() == b"1\t0.5\n"
    assert [p.name for p in tmp_path.iterdir()] == ["loss.log"]


WARM_STEP = """
import resource
import numpy as np
from kgrec.data import SyntheticSpec, make_synthetic_dataset
from kgrec.losses import LossWeights
from kgrec.model import init_params
from kgrec.sampling import build_sampler
from kgrec.training import kmpn_loss_and_grads

store, graph, _ = make_synthetic_dataset(SyntheticSpec(), seed=7)
params = init_params(graph.num_entities, graph.num_relations, store.num_users, seed=7)
rng = np.random.default_rng(0)
users, pos = store.train_pairs()
pick = rng.choice(len(users), 1024, replace=False)
batch = users[pick], pos[pick], build_sampler(store).sample_negatives(rng, users[pick])
for _ in range(3):
    kmpn_loss_and_grads(params, graph, store, *batch, LossWeights())
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
kmpn_loss_and_grads(params, graph, store, *batch, LossWeights())
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is set for glibc only")
def test_warm_training_step_takes_no_page_faults():
    """Importing kgrec.numeric keeps freed heap pages mapped, so a step
    after three identical warm-up steps reuses their pages instead of
    faulting fresh zeroed ones in (about 1,400 faults per step without)."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", WARM_STEP], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert int(res.stdout) < 100
