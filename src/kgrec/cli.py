"""Command-line front end.

Subcommands: prepare, synth, train, eval, gradcheck, export-content. Every
run that takes --out writes a `run.meta` capturing the fully resolved
configuration, so any result can be reproduced from that file alone.

This module imports only the standard library at load time; the numeric
stack is imported inside the command handlers, after --threads and
--deterministic have been translated into environment thread caps.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_SHARED = {
    "data": (None, str),
    "out": (None, str),
    "seed": (0, int),
    "threads": (0, int),  # 0 = library default
    "deterministic": (False, bool),
    "config": (None, str),
}

_DEFAULTS = {
    "prepare": dict(_SHARED),
    "synth": {
        **_SHARED,
        "seed": (7, int),
        "users": (200, int),
        "items": (300, int),
        "clusters": (4, int),
        "density": (0.1, float),
        "cold_fraction": (0.03, float),
        "held_out": (0.2, float),
    },
    "train": {
        **_SHARED,
        "mode": ("kmpn", str),
        "epochs": (300, int),
        "batch_size": (None, int),  # graph modes; unset means TrainConfig's default
        "lr": (1e-3, float),
        "lr_end": (0.0, float),
        "h": (64, int),
        "layers": (3, int),
        "n_pref": (8, int),
        "n_meta": (64, int),
        "epsilon": (0.5, float),
        "lambda1": (1e-5, float),
        "lambda2": (1e-2, float),
        "lambda_cs": (0.1, float),
        "content_items": (None, str),
        "content_users": (None, str),
        "buckets": (4096, int),
        "history_size": (8, int),
        "negatives": (4, int),
        "eval_every": (0, int),
    },
    "eval": {
        **_SHARED,
        "checkpoint": (None, str),
        "split": ("test", str),
        "k": ("20,60,100", str),
        "content_items": (None, str),
        "content_users": (None, str),
    },
    "gradcheck": {
        **_SHARED,
        "kind": ("all", str),
        "tolerance": (1e-4, float),
    },
    "export-content": {
        **_SHARED,
        "checkpoint": (None, str),
        "no_binary": (False, bool),
    },
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgrec",
        description="Knowledge-graph recommender: data prep, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _DEFAULTS.items():
        p = sub.add_parser(command)
        for name, (default, typ) in spec.items():
            flag = _flag(name)
            if typ is bool:
                p.add_argument(flag, action="store_true", default=False)
            elif typ is int:
                p.add_argument(flag, type=int, default=None)
            elif typ is float:
                p.add_argument(flag, type=float, default=None)
            else:
                p.add_argument(flag, type=str, default=None)
    return parser


def _coerce(raw: str, typ, key: str):
    if typ is bool:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"config key {key!r}: cannot parse {raw!r} as boolean")
    try:
        return typ(raw.strip())
    except ValueError:
        raise ValueError(f"config key {key!r}: cannot parse {raw!r} as {typ.__name__}") from None


def _parse_config_file(path: str):
    pairs = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise ValueError(f"{path}:{lineno}: not UTF-8") from None
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            pairs.append((key.strip().replace("-", "_"), value))
    return pairs


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Defaults, overlaid by --config file values, overlaid by explicit flags."""
    spec = _DEFAULTS[command]
    resolved = {k: default for k, (default, _t) in spec.items()}
    if args.config:
        for key, raw in _parse_config_file(args.config):
            if key not in spec:
                raise ValueError(f"unknown config key {key!r}")
            resolved[key] = _coerce(raw, spec[key][1], key)
        resolved["config"] = args.config
    for key, (_default, typ) in spec.items():
        val = getattr(args, key)
        if typ is bool:
            if val:
                resolved[key] = True
        elif val is not None:
            resolved[key] = val
    return resolved


def _apply_threads(opts: dict) -> None:
    n = opts.get("threads") or 0
    if n < 0:
        raise ValueError("--threads must be >= 0")
    if opts.get("deterministic") and n == 0:
        n = 1  # fixed reduction order
    if n > 0:
        for var in _THREAD_ENV_VARS:
            os.environ[var] = str(n)


def _write_run_meta(opts: dict, command: str) -> None:
    out = opts.get("out")
    if not out:
        return
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"command={command}"]
    for key in sorted(opts):
        lines.append(f"{key}={opts[key]}")
    from .numeric import write_text_atomic

    write_text_atomic(out_dir / "run.meta", "\n".join(lines) + "\n")


def _require(opts: dict, key: str, command: str):
    if not opts.get(key):
        raise ValueError(f"{command}: {_flag(key)} is required")
    return opts[key]


def _summary_counts(bundle) -> str:
    store, graph = bundle.store, bundle.graph
    header = "users\titems\tinteractions\tentities\trelations\ttriplets"
    row = (
        f"{store.num_users}\t{store.num_items}\t{store.total_interactions()}\t"
        f"{graph.num_entities}\t{graph.num_relations_raw}\t{graph.num_triplets_raw}"
    )
    return header + "\n" + row


def _cmd_prepare(opts: dict) -> int:
    from .data import check_inverse_closure, load_bundle

    data = _require(opts, "data", "prepare")
    bundle = load_bundle(data)
    check_inverse_closure(bundle.graph)
    print(_summary_counts(bundle))
    return 0


def _cmd_synth(opts: dict) -> int:
    from .data import DatasetBundle, SyntheticSpec, make_synthetic_dataset, save_bundle

    out = _require(opts, "out", "synth")
    spec = SyntheticSpec(
        n_users=opts["users"],
        n_items=opts["items"],
        n_clusters=opts["clusters"],
        density=opts["density"],
        cold_user_fraction=opts["cold_fraction"],
        held_out_fraction=opts["held_out"],
    )
    store, graph, corpus = make_synthetic_dataset(spec, seed=opts["seed"])
    bundle = DatasetBundle(store=store, graph=graph, corpus=corpus)
    save_bundle(bundle, out)
    _write_run_meta(opts, "synth")
    print(_summary_counts(bundle))
    return 0


# smallest accepted value of every numeric train flag
_TRAIN_MINIMUMS = {
    "epochs": 0, "batch_size": 1, "h": 1, "layers": 0, "n_pref": 1, "n_meta": 1,
    "buckets": 1, "history_size": 1, "negatives": 1, "eval_every": 0,
    "lr_end": 0, "lambda1": 0, "lambda2": 0, "lambda_cs": 0, "epsilon": 0,
}


def _train_config(opts: dict):
    """Check every train flag (naming it in each error), fill in an unset
    --batch-size and build the validated TrainConfig, before data is read."""
    from .losses import LossWeights
    from .optim import TrainConfig

    mode = opts["mode"]
    if mode not in ("kmpn", "ckmpn", "content"):
        raise ValueError(f"unknown train mode {mode!r}")
    if opts["batch_size"] is None:
        opts["batch_size"] = TrainConfig.batch_size
    elif mode == "content":
        raise ValueError("train: --batch-size does not apply to --mode content")
    for key in ("lr", "lr_end", "lambda1", "lambda2", "lambda_cs", "epsilon"):
        if not math.isfinite(opts[key]):
            raise ValueError(f"train: {_flag(key)} must be finite")
    for key, low in _TRAIN_MINIMUMS.items():
        if not opts[key] >= low:
            raise ValueError(f"train: {_flag(key)} must be >= {low}")
    if not opts["lr"] >= opts["lr_end"]:
        raise ValueError("train: --lr must be >= --lr-end")
    if opts["epsilon"] > 1:
        raise ValueError("train: --epsilon must be <= 1")
    if mode == "content" and opts["h"] % 2:
        raise ValueError("train: --h must be even in --mode content")
    if mode != "content" and opts["n_pref"] < 2 and opts["lambda2"] != 0.0:
        raise ValueError(
            "train: --n-pref must be at least 2 when --lambda2 is nonzero "
            "(decorrelation needs two preference rows)"
        )
    if mode == "ckmpn" and not (opts["content_items"] and opts["content_users"]):
        raise ValueError("mode ckmpn requires --content-items and --content-users")
    weights = LossWeights(
        l2=opts["lambda1"], dcorr=opts["lambda2"], cross_system=opts["lambda_cs"],
        pca_keep=opts["epsilon"],
    )
    config = TrainConfig(
        epochs=opts["epochs"], batch_size=opts["batch_size"], lr_start=opts["lr"],
        lr_end=opts["lr_end"], weights=weights, seed=opts["seed"], eval_every=opts["eval_every"],
    )
    config.validate()
    return config


def _cmd_train(opts: dict) -> int:
    from .content import init_content, read_embeddings, save_content_checkpoint, train_content
    from .data import load_bundle
    from .model import init_params, save_checkpoint
    from .numeric import write_text_atomic
    from .training import train_ckmpn, train_kmpn

    data = _require(opts, "data", "train")
    out = Path(_require(opts, "out", "train"))
    mode = opts["mode"]
    config = _train_config(opts)
    bundle = load_bundle(data)
    out.mkdir(parents=True, exist_ok=True)

    if mode == "content":
        params = init_content(
            h=opts["h"],
            num_buckets=opts["buckets"],
            history_size=opts["history_size"],
            num_negatives=opts["negatives"],
            seed=opts["seed"],
        )
        trained, lines = train_content(bundle.corpus, bundle.store, params, config)
        save_content_checkpoint(trained, out / "checkpoint.content")
    else:
        params = init_params(
            bundle.graph.num_entities,
            bundle.graph.num_relations,
            bundle.store.num_users,
            h=opts["h"],
            n_layers=opts["layers"],
            n_pref=opts["n_pref"],
            n_meta=opts["n_meta"],
            seed=opts["seed"],
        )
        if mode == "ckmpn":
            content = (
                read_embeddings(opts["content_items"]),
                read_embeddings(opts["content_users"]),
            )
            trained, lines = train_ckmpn(bundle, params, content, config)
        else:
            trained, lines = train_kmpn(bundle, params, config)
        save_checkpoint(trained, out / "checkpoint.kmpn")

    write_text_atomic(out / "loss.log", "".join(line + "\n" for line in lines))
    _write_run_meta(opts, "train")
    return 0


def _eval_ks(opts: dict) -> tuple:
    """Check every eval flag, naming the flag in each error, and return the
    cutoffs; runs before any data is read."""
    if opts["split"] not in ("test", "valid", "cold_start"):
        raise ValueError("eval: --split must be one of test, valid, cold_start")
    try:
        ks = tuple(int(x) for x in str(opts["k"]).split(",") if x.strip())
    except ValueError:
        ks = ()
    if not ks or min(ks) < 1:
        raise ValueError("eval: --k must be a comma-separated list of integers >= 1")
    if not opts["checkpoint"]:
        if not (opts["content_items"] and opts["content_users"]):
            raise ValueError("eval: need --checkpoint or both --content-items/--content-users")
        if opts["split"] == "cold_start":
            raise ValueError("eval: --split cold_start needs --checkpoint, not exchange files")
    return ks


def _cmd_eval(opts: dict) -> int:
    from .content import read_embeddings
    from .data import load_bundle
    from .evaluation import evaluate, evaluate_embeddings
    from .model import load_checkpoint
    from .numeric import write_text_atomic

    data = _require(opts, "data", "eval")
    ks = _eval_ks(opts)
    bundle = load_bundle(data)
    split = opts["split"]
    if opts["checkpoint"]:
        report = evaluate(load_checkpoint(opts["checkpoint"]), bundle, split, ks=ks)
    else:
        users, items = read_embeddings(opts["content_users"]), read_embeddings(opts["content_items"])
        report = evaluate_embeddings(users, items, bundle, split, ks=ks)
    text = report.render()
    sys.stdout.write(text)
    if opts.get("out"):
        out = Path(opts["out"])
        out.mkdir(parents=True, exist_ok=True)
        write_text_atomic(out / "report.txt", text)
        _write_run_meta(opts, "eval")
    return 0


def _cmd_gradcheck(opts: dict) -> int:
    from .numeric import write_text_atomic
    from .training import grad_check

    if not 0 <= opts["tolerance"] < math.inf:  # 0 demands exact gradients: a FAIL, not an error
        raise ValueError("gradcheck: --tolerance must be finite and >= 0")
    kinds = ("kmpn", "ckmpn", "content") if opts["kind"] == "all" else (opts["kind"],)
    reports = [grad_check(kind, tolerance=opts["tolerance"], seed=opts["seed"]) for kind in kinds]
    text = "\n".join(r.render() for r in reports) + "\n"
    sys.stdout.write(text)
    if opts.get("out"):
        out = Path(opts["out"])
        out.mkdir(parents=True, exist_ok=True)
        write_text_atomic(out / "gradcheck.txt", text)
        _write_run_meta(opts, "gradcheck")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_export_content(opts: dict) -> int:
    from .content import export_embeddings, load_content_checkpoint
    from .data import load_bundle

    data = _require(opts, "data", "export-content")
    out = _require(opts, "out", "export-content")
    ckpt = _require(opts, "checkpoint", "export-content")
    bundle = load_bundle(data)
    params = load_content_checkpoint(ckpt)
    item_set, user_set = export_embeddings(
        params, bundle.corpus, bundle.store, out, write_binary=not opts["no_binary"]
    )
    _write_run_meta(opts, "export-content")
    print(f"exported {item_set.count} item and {user_set.count} user embeddings (dim {item_set.dim})")
    return 0


_HANDLERS = {
    "prepare": _cmd_prepare,
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "export-content": _cmd_export_content,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    try:
        opts = _resolve(args, args.command)
        _apply_threads(opts)
        return _HANDLERS[args.command](opts)
    except (ValueError, OSError) as exc:
        msg = " ".join(str(exc).split())  # single line
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
