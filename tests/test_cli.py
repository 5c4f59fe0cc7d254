import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from conftest import SRC, run_cli

from kgrec.content import EmbeddingMatrixFile, init_content, read_embeddings, save_content_checkpoint, write_embeddings_text
from kgrec.model import init_params, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    """A small generated dataset shared by the CLI tests."""
    d = tmp_path_factory.mktemp("cli_data")
    res = run_cli(
        "synth", "--out", d, "--seed", 3,
        "--users", 40, "--items", 60, "--clusters", 3,
        "--density", 0.15, "--cold-fraction", 0.05,
    )
    assert res.returncode == 0, res.stderr
    return d, res.stdout


def test_synth_then_prepare_counts_agree(cli_dataset):
    d, synth_out = cli_dataset
    lines = synth_out.strip().splitlines()
    assert lines[0] == "users\titems\tinteractions\tentities\trelations\ttriplets"
    users, items, inter, entities, relations, triplets = map(int, lines[1].split("\t"))
    assert (users, items) == (40, 60)
    assert entities == 60 + 3 * 10  # items plus per-cluster attribute nodes
    assert relations == 3
    assert triplets == 60 * 3
    assert inter > 0

    res = run_cli("prepare", "--data", d)
    assert res.returncode == 0, res.stderr
    assert res.stdout == synth_out

    for name in ("train.txt", "valid.txt", "test.txt", "cold_history.txt",
                 "cold_test.txt", "kg.txt", "items.tsv", "run.meta"):
        assert (d / name).exists(), name


def test_prepare_missing_kg_reports_path(tmp_path):
    (tmp_path / "train.txt").write_text("0 0\n")
    res = run_cli("prepare", "--data", tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith("error: missing kg file:")
    assert "kg.txt" in res.stderr


def test_prepare_surfaces_split_overlap(tmp_path):
    (tmp_path / "train.txt").write_text("0 1 2\n")
    (tmp_path / "test.txt").write_text("0 1\n")
    (tmp_path / "kg.txt").write_text("0 0 1\n")
    res = run_cli("prepare", "--data", tmp_path)
    assert res.returncode == 2
    assert "both train and test" in res.stderr
    assert "\n" not in res.stderr.strip()  # single-line error contract


def test_prepare_kg_non_integer_names_file_and_line(tmp_path):
    (tmp_path / "train.txt").write_text("0 0 1\n")
    (tmp_path / "kg.txt").write_text("0 x 1\n")
    res = run_cli("prepare", "--data", tmp_path)
    assert res.returncode == 2
    assert res.stderr == f"error: {tmp_path / 'kg.txt'}:1: non-integer field\n"


@pytest.mark.parametrize("name", ["items.tsv", "kg.txt", "train.txt", "run.cfg"])
def test_non_utf8_input_names_file_and_line(tmp_path, name):
    for f, text in (("train.txt", "0 0 1\n"), ("kg.txt", "0 0 1\n"), ("items.tsv", "0\tred\n1\tblue\n"),
                    ("run.cfg", "threads=1\n")):
        (tmp_path / f).write_text(text)
    bad = tmp_path / name
    bad.write_bytes(bad.read_bytes() + b"\n1 caf\xe9 1\n")  # a Latin-1 byte on a new last line, after a blank one
    line = bad.read_bytes().count(b"\n")
    res = run_cli("prepare", "--data", tmp_path, "--config", tmp_path / "run.cfg")
    assert res.returncode == 2
    assert res.stderr == f"error: {bad}:{line}: not UTF-8\n"


def _items_edited(synth_dir, tmp_path, edit):
    """A copy of the seed-7 dataset (items 0..299, item 299 only in train.txt)
    whose items.tsv holds `edit` of its lines."""
    d = tmp_path / "data"
    shutil.copytree(synth_dir, d)
    lines = (d / "items.tsv").read_text().splitlines(keepends=True)
    (d / "items.tsv").write_text("".join(edit(lines)))
    return d


def _commands_fail_with(d, tmp_path, message):
    """prepare, train and eval on `d` each exit 2 with the one line `message`
    and write nothing to --out."""
    ck, out = tmp_path / "c.kmpn", tmp_path / "out"
    save_checkpoint(init_params(340, 6, 200, h=4, n_layers=1, n_pref=2, n_meta=2, seed=0), ck)
    for command, *flags in (["prepare"], ["train", "--epochs", 1, "--out", out],
                            ["eval", "--checkpoint", ck, "--out", out]):
        res = run_cli(command, "--data", d, *flags)
        assert (res.returncode, res.stderr) == (2, f"error: {message}\n"), command
    assert not out.exists()


@pytest.mark.parametrize(
    "edit,line,item,listed",
    [
        # the last id, 299, typed as 2999; item 150's line deleted
        (lambda lines: [*lines[:-1], lines[-1].replace("299", "2999", 1)], 300, 2999, 300),
        (lambda lines: lines[:150] + lines[151:], 299, 299, 299),
    ],
    ids=["typo", "gap"],
)
def test_items_file_that_skips_an_id_fails_naming_the_line(synth_dir, tmp_path, edit, line, item, listed):
    d = _items_edited(synth_dir, tmp_path, edit)
    message = (f"{d / 'items.tsv'}:{line}: item id {item} out of range: "
               f"the file lists {listed} items, so ids must be 0..{listed - 1}")
    _commands_fail_with(d, tmp_path, message)


def test_truncated_items_file_names_it_and_the_split_file(synth_dir, tmp_path):
    d = _items_edited(synth_dir, tmp_path, lambda lines: lines[:92])
    _commands_fail_with(d, tmp_path, f"{d / 'train.txt'}: item id 299 is not in {d / 'items.tsv'} (92 items)")


def test_train_zero_epochs_checkpoint_equals_fresh_init(cli_dataset, tmp_path):
    d, _ = cli_dataset
    out = tmp_path / "run"
    res = run_cli(
        "train", "--data", d, "--out", out, "--epochs", 0,
        "--h", 16, "--layers", 2, "--n-pref", 4, "--n-meta", 8, "--seed", 3,
    )
    assert res.returncode == 0, res.stderr
    assert (out / "loss.log").read_text() == ""
    assert "epochs=0" in (out / "run.meta").read_text()

    want = init_params(90, 6, 40, h=16, n_layers=2, n_pref=4, n_meta=8, seed=3)
    ref = tmp_path / "ref.kmpn"
    save_checkpoint(want, ref)
    assert ref.read_bytes() == (out / "checkpoint.kmpn").read_bytes()


def test_train_is_reproducible_byte_for_byte(cli_dataset, tmp_path):
    d, _ = cli_dataset
    args = [
        "--data", d, "--epochs", 3, "--h", 8, "--layers", 2,
        "--n-pref", 4, "--n-meta", 8, "--batch-size", 64,
        "--seed", 11, "--deterministic",
    ]
    r1 = run_cli("train", *args, "--out", tmp_path / "a")
    r2 = run_cli("train", *args, "--out", tmp_path / "b")
    assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
    for name in ("checkpoint.kmpn", "loss.log"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    log = (tmp_path / "a" / "loss.log").read_text().splitlines()
    assert len(log) == 3
    for k, line in enumerate(log):
        fields = line.split("\t")
        assert len(fields) == 7
        assert fields[0] == str(k + 1)
    params = load_checkpoint(tmp_path / "a" / "checkpoint.kmpn")
    assert params.h == 8 and params.n_layers == 2


def test_train_ckmpn_requires_content_flags(cli_dataset, tmp_path):
    d, _ = cli_dataset
    res = run_cli(
        "train", "--data", d, "--out", tmp_path / "x",
        "--mode", "ckmpn", "--epochs", 1, "--h", 8,
    )
    assert res.returncode == 2
    assert "requires --content-items and --content-users" in res.stderr


def test_train_unknown_mode_rejected(cli_dataset, tmp_path):
    d, _ = cli_dataset
    res = run_cli("train", "--data", d, "--out", tmp_path / "x", "--mode", "blend")
    assert res.returncode == 2
    assert "unknown train mode" in res.stderr


def test_train_eval_every_reports_on_stderr(cli_dataset, tmp_path):
    d, _ = cli_dataset
    res = run_cli(
        "train", "--data", d, "--out", tmp_path / "x", "--epochs", 2, "--eval-every", 1,
        "--h", 8, "--layers", 1, "--n-pref", 2, "--n-meta", 4, "--batch-size", 256,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stderr.splitlines()
    assert [line.split()[:4] for line in lines] == [
        ["epoch", "1", "valid", "recall@20"],
        ["epoch", "2", "valid", "recall@20"],
    ]


def test_train_n_pref_one_rejected_before_loading_data(tmp_path):
    res = run_cli(
        "train", "--data", tmp_path / "does-not-exist", "--out", tmp_path / "x", "--n-pref", 1,
    )
    assert res.returncode == 2
    assert res.stderr.startswith("error: train: --n-pref must be at least 2")
    assert "\n" not in res.stderr.strip()
    assert not (tmp_path / "x").exists()


_CONTENT_BATCH_SIZE = "--batch-size does not apply to --mode content"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--batch-size", 0], "--batch-size must be >= 1"),
        (["--epochs", -1], "--epochs must be >= 0"),
        (["--h", 0], "--h must be >= 1"),
        (["--layers", -1], "--layers must be >= 0"),
        (["--n-meta", 0], "--n-meta must be >= 1"),
        (["--mode", "content", "--buckets", 0], "--buckets must be >= 1"),
        (["--mode", "content", "--h", 7], "--h must be even in --mode content"),
        (["--lambda1", -1.0], "--lambda1 must be >= 0"),
        (["--lr", 1e-4, "--lr-end", 1e-3], "--lr must be >= --lr-end"),
        (["--epsilon", 1.5], "--epsilon must be <= 1"),
        (["--mode", "content", "--batch-size", 64], _CONTENT_BATCH_SIZE),
        (["--lr=inf"], "--lr must be finite"),
        (["--lr=nan"], "--lr must be finite"),
        (["--lr-end=inf"], "--lr-end must be finite"),
        (["--lambda1=inf"], "--lambda1 must be finite"),
        (["--lambda2=nan"], "--lambda2 must be finite"),
        (["--lambda-cs=-inf"], "--lambda-cs must be finite"),
        (["--epsilon=nan"], "--epsilon must be finite"),
    ],
)
def test_train_flags_checked_before_loading_data(tmp_path, flags, message):
    res = run_cli("train", "--data", tmp_path / "does-not-exist", "--out", tmp_path / "x", *flags)
    assert res.returncode == 2
    assert res.stderr == f"error: train: {message}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--users", 0], "--users must be >= 1"),
        (["--items", 0], "--items must be >= 1"),
        (["--clusters", 0], "--clusters must be >= 1"),
        (["--density", 0], "--density must be > 0"),
        (["--density", 1.01], "--density must be <= 1"),
        (["--density=nan"], "--density must be finite"),
        (["--held-out", 1], "--held-out must be < 1"),
        (["--cold-fraction", 0.5], "--cold-fraction must be < 0.5"),
        (["--cold-fraction", -0.01], "--cold-fraction must be >= 0"),
    ],
)
def test_synth_flags_checked_before_any_work(tmp_path, flags, message):
    res = run_cli("synth", "--out", tmp_path / "x", *flags)
    assert res.returncode == 2
    assert res.stderr == f"error: synth: {message}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["synth", "train", "gradcheck"])
def test_negative_seed_rejected_before_any_work(tmp_path, command):
    data = ["--data", tmp_path / "does-not-exist"] if command == "train" else []
    res = run_cli(command, *data, "--out", tmp_path / "x", "--seed", -1)
    assert res.returncode == 2
    assert res.stderr == f"error: {command}: --seed must be >= 0\n"
    assert res.stdout == ""
    assert not (tmp_path / "x").exists()


def _run_meta(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def test_resolved_defaults_are_pinned(cli_dataset, tmp_path):
    """Every train and synth default as run.meta records it; the settings
    table is their one declaration, and this guards it against edits."""
    res = run_cli("synth", "--out", tmp_path / "synth")
    assert res.returncode == 0, res.stderr
    assert _run_meta(tmp_path / "synth" / "run.meta") == {
        "command": "synth", "clusters": "4", "cold_fraction": "0.03", "config": "None",
        "density": "0.1", "deterministic": "False", "held_out": "0.2", "items": "300",
        "out": str(tmp_path / "synth"), "seed": "7", "threads": "0", "users": "200",
    }
    d, _ = cli_dataset
    res = run_cli("train", "--data", d, "--out", tmp_path / "train", "--epochs", 0)
    assert res.returncode == 0, res.stderr
    assert _run_meta(tmp_path / "train" / "run.meta") == {
        "command": "train", "batch_size": "1024", "buckets": "4096", "config": "None",
        "content_items": "None", "content_users": "None", "data": str(d), "deterministic": "False",
        "epochs": "0", "epsilon": "0.5", "eval_every": "0", "h": "64", "history_size": "8",
        "lambda1": "1e-05", "lambda2": "0.01", "lambda_cs": "0.1", "layers": "3", "lr": "0.001",
        "lr_end": "0.0", "mode": "kmpn", "n_meta": "64", "n_pref": "8", "negatives": "4",
        "out": str(tmp_path / "train"), "seed": "0", "threads": "0",
    }


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_gradcheck_bad_tolerance_rejected_before_any_check(tmp_path, value):
    res = run_cli("gradcheck", "--kind", "content", "--out", tmp_path / "x", f"--tolerance={value}")
    assert res.returncode == 2
    assert res.stderr == "error: gradcheck: --tolerance must be finite and >= 0\n"
    assert res.stdout == ""
    assert not (tmp_path / "x").exists()


def test_content_mode_rejects_batch_size_config_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=content\nbatch-size=1024\n")
    res = run_cli(
        "train", "--data", tmp_path / "does-not-exist", "--out", tmp_path / "x", "--config", cfg,
    )
    assert res.returncode == 2
    assert res.stderr == f"error: train: {_CONTENT_BATCH_SIZE}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("form", ["flag", "config"])
def test_negative_threads_rejected_before_any_work(tmp_path, form):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads=-4\n")
    threads = ["--threads", -4] if form == "flag" else ["--config", cfg]
    res = run_cli("synth", "--out", tmp_path / "x", "--deterministic", *threads)
    assert res.returncode == 2
    assert res.stderr == "error: --threads must be >= 0\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("form", ["flag", "config"])
def test_deterministic_with_threads_above_one_rejected_before_any_work(tmp_path, form):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads=4\n")
    threads = ["--threads", 4] if form == "flag" else ["--config", cfg]
    res = run_cli("synth", "--out", tmp_path / "x", "--deterministic", *threads)
    assert res.returncode == 2
    assert res.stderr == "error: synth: --deterministic runs one thread; --threads must be 0 or 1\n"
    assert not (tmp_path / "x").exists()
    for n in (0, 1):
        res = run_cli("synth", "--out", tmp_path / f"t{n}", "--deterministic", "--threads", n, "--users", 20)
        assert res.returncode == 0, res.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["train", "--epochs", "x"], "train: argument --epochs: invalid int value: 'x'"),
        (["train", "--bogus", "1"], "train: unrecognized arguments: --bogus 1"),
        (["prepare", "--out", "{out}"], "prepare: unrecognized arguments: --out {out}"),
        (["prepare", "--seed", "3"], "prepare: unrecognized arguments: --seed 3"),
        (["synth", "--out", "{out}", "--data", "{data}"], "synth: unrecognized arguments: --data {data}"),
        (["eval", "--out", "{out}", "--seed", "3"], "eval: unrecognized arguments: --seed 3"),
        (["gradcheck", "--out", "{out}", "--data", "{data}"], "gradcheck: unrecognized arguments: --data {data}"),
        (["export-content", "--out", "{out}", "--seed", "3"], "export-content: unrecognized arguments: --seed 3"),
        ([], "the following arguments are required: command"),
    ],
)
def test_parser_errors_are_one_line(tmp_path, args, message):
    paths = {"out": tmp_path / "x", "data": tmp_path / "d"}
    res = run_cli(*(a.format(**paths) for a in args))
    assert res.returncode == 2
    assert res.stderr == f"error: {message.format(**paths)}\n"
    assert res.stdout == ""
    assert not (tmp_path / "x").exists()


def test_cli_resolves_a_config_without_importing_numpy(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=2\nthreads=1\n")
    code = (
        "import sys, kgrec; "
        "assert not [m for m in sys.modules if m.startswith('kgrec.')], 'import kgrec loaded a submodule'; "
        "assert not hasattr(kgrec, 'model'), 'attribute access imported a submodule'; "
        "from kgrec import cli; "
        "args = cli._build_parser().parse_args(['train', '--config', sys.argv[1]]); "
        "opts = cli._resolve(args, 'train'); cli._apply_threads(opts); "
        "assert opts['epochs'] == 2, opts; "
        "assert 'numpy' not in sys.modules, 'numpy loaded before the thread caps'; "
        "from kgrec import model; "
        "assert kgrec.model is model and callable(model.forward)"
    )
    res = subprocess.run(
        [sys.executable, "-c", code, str(cfg)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert res.returncode == 0, res.stderr


def test_config_file_merge_explicit_flags_win(cli_dataset, tmp_path):
    d, _ = cli_dataset
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nepochs=2\nh=8\nseed=5\nn-pref=4\n")
    out = tmp_path / "cfg_run"
    res = run_cli(
        "train", "--data", d, "--out", out, "--config", cfg,
        "--epochs", 1, "--layers", 1, "--n-meta", 8,
    )
    assert res.returncode == 0, res.stderr
    meta = dict(
        line.split("=", 1) for line in (out / "run.meta").read_text().splitlines()
    )
    assert meta["epochs"] == "1"  # explicit flag beats config value
    assert meta["h"] == "8"  # config value beats default
    assert meta["seed"] == "5"
    assert meta["n_pref"] == "4"  # dashes in config keys are normalized
    assert meta["command"] == "train"


def test_config_file_unknown_key_rejected(cli_dataset, tmp_path):
    d, _ = cli_dataset
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epoochs=2\n")
    res = run_cli("train", "--data", d, "--out", tmp_path / "x", "--config", cfg)
    assert res.returncode == 2
    assert "unknown config key 'epoochs'" in res.stderr


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("# run\nepochs=2\n\nusers=40\n", 4, "unknown config key 'users'"),
        ("epochs=2.5\n", 1, "config key 'epochs': cannot parse '2.5' as int"),
    ],
    ids=["unknown-key", "bad-int"],
)
def test_config_file_value_errors_name_file_and_line(tmp_path, text, where, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    res = run_cli("train", "--data", tmp_path / "does-not-exist", "--out", tmp_path / "x", "--config", cfg)
    assert res.returncode == 2
    assert res.stderr == f"error: {cfg}:{where}: {message}\n"
    assert not (tmp_path / "x").exists()


def test_eval_writes_report_matching_stdout(cli_dataset, tmp_path):
    d, _ = cli_dataset
    train_out = tmp_path / "run"
    res = run_cli(
        "train", "--data", d, "--out", train_out, "--epochs", 2,
        "--h", 8, "--layers", 1, "--n-pref", 4, "--n-meta", 8, "--seed", 1,
    )
    assert res.returncode == 0, res.stderr

    eval_out = tmp_path / "eval"
    res = run_cli(
        "eval", "--data", d, "--checkpoint", train_out / "checkpoint.kmpn",
        "--split", "test", "--k", "5,10", "--out", eval_out,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("recall\t5\t")
    assert "split=test" in res.stdout
    assert (eval_out / "report.txt").read_text() == res.stdout

    cold = run_cli(
        "eval", "--data", d, "--checkpoint", train_out / "checkpoint.kmpn",
        "--split", "cold_start", "--k", "5",
    )
    assert cold.returncode == 0, cold.stderr
    assert "split=cold_start" in cold.stdout


@pytest.mark.parametrize("split", ["test", "cold_start"])
def test_eval_repeated_k_writes_one_row_per_metric_and_k(cli_dataset, tmp_path, split):
    d, _ = cli_dataset
    ck = tmp_path / "init.kmpn"
    save_checkpoint(init_params(90, 6, 40, h=8, n_layers=2, n_pref=2, n_meta=2, seed=0), ck)
    res = run_cli("eval", "--data", d, "--checkpoint", ck, "--split", split, "--k", "20,20,5", "--out", tmp_path / "e")
    assert res.returncode == 0, res.stderr
    rows = [line.split("\t")[:2] for line in (tmp_path / "e" / "report.txt").read_text().splitlines() if "\t" in line]
    assert rows == [[name, k] for name in ("recall", "ndcg", "hit_ratio") for k in ("5", "20")]


def test_eval_needs_checkpoint_or_embeddings(cli_dataset):
    d, _ = cli_dataset
    res = run_cli("eval", "--data", d, "--split", "test")
    assert res.returncode == 2
    assert "need --checkpoint or both" in res.stderr


BAD_K = "--k must be a comma-separated list of integers >= 1"
EXCHANGE = ["--content-items", "items.txt", "--content-users", "users.txt"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--split", "bogus", "--checkpoint", "x.kmpn"], "--split must be one of test, valid, cold_start"),
        (["--k", "abc", "--checkpoint", "x.kmpn"], BAD_K),
        (["--k", "20,0", "--checkpoint", "x.kmpn"], BAD_K),
        (EXCHANGE[:2], "need --checkpoint or both --content-items/--content-users"),
        (["--split", "cold_start", *EXCHANGE], "--split cold_start needs --checkpoint, not exchange files"),
    ],
)
def test_eval_flags_checked_before_loading_data(tmp_path, flags, message):
    res = run_cli("eval", "--data", tmp_path / "does-not-exist", "--out", tmp_path / "x", *flags)
    assert res.returncode == 2
    assert res.stderr == f"error: eval: {message}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "counts, what, have, want",
    [
        ((100, 6, 40), "entities", 100, 90),
        ((90, 8, 40), "relations (inverses included)", 8, 6),
        ((90, 6, 41), "users", 41, 40),
    ],
    ids=["entities", "relations", "users"],
)
def test_eval_rejects_checkpoint_with_other_count(cli_dataset, tmp_path, counts, what, have, want):
    d, _ = cli_dataset  # 90 entities, 3 raw relations (6 with inverses), 40 users
    ck = tmp_path / "c.kmpn"
    save_checkpoint(init_params(*counts, h=4, n_layers=1, n_pref=2, n_meta=2, seed=0), ck)
    res = run_cli("eval", "--data", d, "--checkpoint", ck, "--split", "test", "--out", tmp_path / "x")
    assert res.returncode == 2
    assert res.stderr == f"error: eval: checkpoint {ck} has {have} {what} but --data {d} has {want}\n"
    assert res.stdout == "" and not (tmp_path / "x").exists()


def _rewrite_checkpoint(path, header_field=None, value=None, nan=False):
    """Set one header field of a written checkpoint, or its first float to NaN."""
    header, _, payload = path.read_bytes().partition(b"\n")
    fields = header.split()
    if header_field is not None:
        fields[header_field] = str(value).encode()
    if nan:
        payload = np.float64(np.nan).tobytes() + payload[8:]
    path.write_bytes(b" ".join(fields) + b"\n" + payload)


def test_eval_rejects_checkpoint_header_larger_than_file(cli_dataset, tmp_path):
    d, _ = cli_dataset
    ck = tmp_path / "c.kmpn"
    save_checkpoint(init_params(90, 6, 40, h=8, n_layers=1, n_pref=2, n_meta=2, seed=0), ck)
    _rewrite_checkpoint(ck, 1, 2**40)  # entity count
    res = run_cli("eval", "--data", d, "--checkpoint", ck, "--split", "test")
    assert res.returncode == 2
    assert res.stderr == f"error: {ck}: truncated checkpoint\n"


def test_eval_rejects_zero_size_checkpoint_with_huge_side(cli_dataset, tmp_path):
    d, _ = cli_dataset
    ck = tmp_path / "c.kmpn"
    ck.write_bytes(b"KMPN1 0 0 0 4611686018427387904 1 0 0\n")  # h = 2**62, every tensor empty
    res = run_cli("eval", "--data", d, "--checkpoint", ck, "--split", "test")
    assert res.returncode == 2
    assert res.stderr == f"error: {ck}: malformed checkpoint header\n"


def test_eval_rejects_text_exchange_file_with_huge_dim(cli_dataset, tmp_path):
    d, _ = cli_dataset
    items, users = tmp_path / "items.txt", tmp_path / "users.txt"
    items.write_text("EMB1 item 0 99999999999999999999\n")
    users.write_text("EMB1 user 0 4\n")
    res = run_cli("eval", "--data", d, "--content-items", items, "--content-users", users)
    assert res.returncode == 2
    assert res.stderr == f"error: {items}: dim 99999999999999999999 is too large\n"


def test_eval_non_finite_checkpoint_error_names_file(cli_dataset, tmp_path):
    d, _ = cli_dataset
    ck = tmp_path / "c.kmpn"
    save_checkpoint(init_params(90, 6, 40, h=4, n_layers=1, n_pref=2, n_meta=2, seed=0), ck)
    _rewrite_checkpoint(ck, nan=True)
    res = run_cli("eval", "--data", d, "--checkpoint", ck, "--split", "test", "--out", tmp_path / "x")
    assert res.returncode == 2
    assert res.stderr == f"error: {ck}: non-finite values in entity_emb\n"
    assert not (tmp_path / "x").exists()


def test_export_content_non_finite_checkpoint_error_names_file(cli_dataset, tmp_path):
    d, _ = cli_dataset
    ck = tmp_path / "c.content"
    save_content_checkpoint(init_content(h=8, num_buckets=32, seed=0), ck)
    _rewrite_checkpoint(ck, nan=True)
    res = run_cli("export-content", "--data", d, "--out", tmp_path / "x", "--checkpoint", ck)
    assert res.returncode == 2
    assert res.stderr == f"error: {ck}: non-finite values in bucket_emb\n"
    assert not (tmp_path / "x").exists()


def test_eval_split_absent_error(cli_dataset, tmp_path):
    d, _ = cli_dataset
    # a dataset without cold files
    (tmp_path / "train.txt").write_text("0 0 1\n1 2\n")
    (tmp_path / "test.txt").write_text("0 2\n1 0\n")
    (tmp_path / "kg.txt").write_text("0 0 1\n1 0 2\n2 0 1\n")
    ck = tmp_path / "c.kmpn"
    save_checkpoint(init_params(3, 2, 2, h=4, n_layers=1, n_pref=2, n_meta=2, seed=0), ck)
    res = run_cli("eval", "--data", tmp_path, "--checkpoint", ck, "--split", "cold_start")
    assert res.returncode == 2
    assert "split absent: dataset has no cold-start files" in res.stderr


def test_content_train_export_eval_pipeline(cli_dataset, tmp_path):
    d, _ = cli_dataset
    crun = tmp_path / "content_run"
    res = run_cli(
        "train", "--data", d, "--out", crun, "--mode", "content",
        "--epochs", 2, "--h", 8, "--buckets", 64,
        "--history-size", 4, "--negatives", 3, "--lr", 0.05, "--seed", 2,
    )
    assert res.returncode == 0, res.stderr
    assert (crun / "checkpoint.content").exists()
    log = (crun / "loss.log").read_text().splitlines()
    assert len(log) == 2 and log[0].split("\t")[0] == "1"

    emb = tmp_path / "emb"
    res = run_cli(
        "export-content", "--data", d, "--out", emb,
        "--checkpoint", crun / "checkpoint.content",
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "exported 60 item and 40 user embeddings (dim 8)"
    for name in ("content_items.txt", "content_users.txt",
                 "content_items.bin", "content_users.bin"):
        assert (emb / name).exists()

    res = run_cli(
        "eval", "--data", d, "--split", "test", "--k", "10",
        "--content-items", emb / "content_items.bin",
        "--content-users", emb / "content_users.txt",
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("recall\t10\t")
    # the files swapped: named by kind, before any scoring
    res = run_cli(
        "eval", "--data", d, "--split", "test", "--k", "10",
        "--content-items", emb / "content_users.txt",
        "--content-users", emb / "content_items.txt",
    )
    assert res.returncode == 2
    assert res.stderr == (f"error: {emb / 'content_users.txt'}, {emb / 'content_items.txt'}: "
                          "content pair must be (item file, user file), got (user file, item file)\n")

    # alignment-mode training accepts the exported pair
    ck = tmp_path / "ck_run"
    res = run_cli(
        "train", "--data", d, "--out", ck, "--mode", "ckmpn",
        "--epochs", 1, "--h", 8, "--layers", 1, "--n-pref", 4, "--n-meta", 8,
        "--content-items", emb / "content_items.txt",
        "--content-users", emb / "content_users.txt",
    )
    assert res.returncode == 0, res.stderr
    line = (ck / "loss.log").read_text().splitlines()[0]
    assert float(line.split("\t")[5]) > 0.0  # alignment component active


@pytest.fixture(scope="module")
def cli_exchange(cli_dataset, tmp_path_factory):
    """The exchange files of a one-epoch h 8 content model on cli_dataset."""
    d, _ = cli_dataset
    out = tmp_path_factory.mktemp("cli_exchange")
    res = run_cli("train", "--data", d, "--out", out / "run", "--mode", "content", "--epochs", 1, "--h", 8)
    assert res.returncode == 0, res.stderr
    res = run_cli("export-content", "--data", d, "--out", out, "--checkpoint", out / "run" / "checkpoint.content")
    assert res.returncode == 0, res.stderr
    return out


@pytest.mark.parametrize("case", ["dim", "swapped", "missing-id"])
def test_exchange_pair_faults_name_their_files(cli_dataset, cli_exchange, tmp_path, case):
    d, _ = cli_dataset
    items, users = cli_exchange / "content_items.txt", cli_exchange / "content_users.bin"
    ckmpn = ("train", "--data", d, "--out", tmp_path / "run", "--mode", "ckmpn", "--epochs", 1)
    if case == "dim":
        res = run_cli(*ckmpn, "--h", 16, "--content-items", items, "--content-users", users)
        message = f"{items}: content embedding dim 8 != model h 16"
    elif case == "swapped":
        res = run_cli(*ckmpn, "--h", 8, "--content-items", users, "--content-users", items)
        message = f"{users}, {items}: content pair must be (item file, user file), got (user file, item file)"
    else:
        full, short = read_embeddings(items), tmp_path / "no_item_0.txt"
        write_embeddings_text(EmbeddingMatrixFile("item", full.ids[1:], full.vectors[1:]), short)
        res = run_cli("eval", "--data", d, "--content-items", short, "--content-users", users)
        message = f"{short}: embedding file (item) is missing id 0"
    assert (res.returncode, res.stderr) == (2, f"error: {message}\n")


def test_export_content_no_binary_flag(cli_dataset, tmp_path):
    d, _ = cli_dataset
    crun = tmp_path / "content_run"
    res = run_cli(
        "train", "--data", d, "--out", crun, "--mode", "content",
        "--epochs", 1, "--h", 8, "--buckets", 32,
    )
    assert res.returncode == 0, res.stderr
    emb = tmp_path / "emb"
    res = run_cli(
        "export-content", "--data", d, "--out", emb,
        "--checkpoint", crun / "checkpoint.content", "--no-binary",
    )
    assert res.returncode == 0, res.stderr
    assert (emb / "content_items.txt").exists()
    assert not (emb / "content_items.bin").exists()


def test_gradcheck_exit_codes(tmp_path):
    res = run_cli("gradcheck", "--kind", "content", "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    assert "result=PASS" in res.stdout
    assert (tmp_path / "gradcheck.txt").read_text() == res.stdout

    res = run_cli("gradcheck", "--kind", "content", "--tolerance", 0)
    assert res.returncode == 1
    assert "result=FAIL" in res.stdout

    res = run_cli("gradcheck", "--kind", "bogus")
    assert res.returncode == 2
    assert "unknown gradcheck kind" in res.stderr


def test_run_meta_is_sorted_key_value(cli_dataset):
    d, _ = cli_dataset
    meta_lines = (d / "run.meta").read_text().splitlines()
    assert meta_lines[0] == "command=synth"
    keys = [line.split("=", 1)[0] for line in meta_lines[1:]]
    assert keys == sorted(keys)
    assert "seed=3" in meta_lines
