"""Seeded mutations of every input file, each run in-process through
`kgrec.cli.main`: the dataset files through `prepare`, both exchange formats
and the graph checkpoint through `eval`, the content checkpoint through
`export-content`. A run must exit 0, or exit 2 with one line that names an
input file; an uncaught exception (a traceback) fails the test."""

import numpy as np
import pytest

from kgrec import cli
from kgrec.content import (EmbeddingMatrixFile, init_content, save_content_checkpoint, write_embeddings_binary,
                           write_embeddings_text)
from kgrec.data import SPLIT_FILES, DatasetBundle, SyntheticSpec, make_synthetic_dataset, save_bundle
from kgrec.model import init_params, save_checkpoint

SEED = 29
POSITIONS = 3  # mutations of each kind per file, at seeded positions


def _insert(text: bytes):
    return lambda raw, p, q, bit: raw[:p] + text + raw[p:]


MUTATIONS = {
    "truncate": lambda raw, p, q, bit: raw[:p],
    "flip": lambda raw, p, q, bit: raw[:p] + bytes([raw[p] ^ 1 << bit]) + raw[p + 1 :] if p < len(raw) else raw,
    "cr": _insert(b"\r"),
    "nul": _insert(b"\x00"),
    "0xff": _insert(b"\xff"),
    "minus-one": _insert(b" -1"),
    "20-digit-id": _insert(b" 12345678901234567890"),
    "nan": _insert(b" nan"),
    "delete-range": lambda raw, p, q, bit: raw[:p] + raw[q:],
    "duplicate-tail": lambda raw, p, q, bit: raw + raw[p:],
}

DATASET_FILES = (*SPLIT_FILES.values(), "kg.txt", "items.tsv")
EXCHANGE_FILES = ("items.txt", "users.txt", "items.bin", "users.bin")
CHECKPOINTS = ("checkpoint.kmpn", "checkpoint.content")


def make_inputs(root):
    """A small dataset in root/data, and exchange files and checkpoints for it in root."""
    store, graph, corpus = make_synthetic_dataset(
        SyntheticSpec(n_users=24, n_items=30, n_clusters=2, density=0.3, cold_user_fraction=0.1), seed=SEED)
    save_bundle(DatasetBundle(store, graph, corpus), root / "data")
    rng = np.random.default_rng(SEED)
    for kind, n in (("item", store.num_items), ("user", store.num_users)):
        emb = EmbeddingMatrixFile(kind, np.arange(n), rng.standard_normal((n, 4)).astype(np.float32))
        write_embeddings_text(emb, root / f"{kind}s.txt")
        write_embeddings_binary(emb, root / f"{kind}s.bin")
    save_checkpoint(init_params(graph.num_entities, graph.num_relations, store.num_users, h=4, n_layers=1,
                                n_pref=2, n_meta=2, seed=SEED), root / "checkpoint.kmpn")
    save_content_checkpoint(init_content(h=4, num_buckets=16, seed=SEED), root / "checkpoint.content")


def command(root, name):
    """The kgrec arguments that read input file `name`, and every input file they read."""
    data = root / "data"
    inputs = [data / f for f in DATASET_FILES]
    if name in DATASET_FILES:
        return ["prepare", "--data", data], inputs
    if name in EXCHANGE_FILES:
        ext = name.rpartition(".")[2]
        pair = [root / f"items.{ext}", root / f"users.{ext}"]
        return ["eval", "--data", data, "--content-items", pair[0], "--content-users", pair[1]], inputs + pair
    if name == "checkpoint.kmpn":
        return ["eval", "--data", data, "--checkpoint", root / name], inputs + [root / name]
    return ["export-content", "--data", data, "--checkpoint", root / name, "--out", root / "export"], \
        inputs + [root / name]


def mutants(raw: bytes, name: str):
    """(kind, mutated bytes) of the fixed catalogue for one file: POSITIONS of each kind,
    at positions drawn from a generator seeded by SEED and the file name."""
    rng = np.random.default_rng([SEED, *name.encode()])
    for kind, mutate in MUTATIONS.items():
        for _ in range(POSITIONS):
            p, q = sorted(rng.integers(0, len(raw) + 1, size=2).tolist())
            yield kind, mutate(raw, p, q, int(rng.integers(8)))


def run_mutants(root, name, capsys):
    """(kind, exit code, stderr, input files) of every mutant of input file `name`; the file is restored
    after each run."""
    path = root / "data" / name if name in DATASET_FILES else root / name
    raw = path.read_bytes()
    args, inputs = command(root, name)
    results = []
    try:
        for kind, mutated in mutants(raw, name):
            path.write_bytes(mutated)
            capsys.readouterr()
            code = cli.main([str(a) for a in args])
            results.append((kind, code, capsys.readouterr().err, inputs))
    finally:
        path.write_bytes(raw)
    return results


@pytest.fixture(scope="module")
def inputs_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutations")
    make_inputs(root)
    return root


@pytest.mark.parametrize("name", DATASET_FILES + EXCHANGE_FILES + CHECKPOINTS)
def test_every_mutant_exits_cleanly_or_names_an_input_file(inputs_root, name, capsys):
    results = run_mutants(inputs_root, name, capsys)
    assert len(results) == len(MUTATIONS) * POSITIONS
    for kind, code, err, inputs in results:
        assert code in (0, 2), (kind, code, err)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (kind, err)
            assert any(str(p) in err for p in inputs), (kind, err)
