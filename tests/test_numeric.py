import math

import numpy as np
import pytest
from scipy import special

from kgrec.content import init_content, load_content_checkpoint, save_content_checkpoint
from kgrec.model import CHECKPOINT_MAGIC, init_params, load_checkpoint, save_checkpoint
from kgrec.numeric import (
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
