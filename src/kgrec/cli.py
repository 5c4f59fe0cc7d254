"""Command-line front end.

Subcommands: prepare, synth, train, eval, gradcheck, export-content. Every
run that takes --out writes a `run.meta` capturing the fully resolved
configuration, so any result can be reproduced from that file alone.

This module imports only the standard library and the numpy-free
`kgrec.settings` at load time; the numeric stack is imported inside the
command handlers, after --threads and --deterministic have been translated
into environment thread caps.
"""

from __future__ import annotations

import argparse
import inspect
import logging
import math
import os
import sys
from pathlib import Path

from .settings import SYNTH, TRAIN, check

_THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

_PATH = (None, str)
_SHARED = {  # every command's; each adds the flags its handler reads
    "threads": (0, int),  # 0 = library default
    "deterministic": (False, bool),
    "config": _PATH,
}


def _flags(table: dict) -> dict:
    """(default, type) of each flag of a settings table; no default means a path."""
    return {s.flag or name: (s.default, str if s.default is None else type(s.default))
            for name, s in table.items() if s.cli}


_DEFAULTS = {
    "prepare": {"data": _PATH, **_SHARED},
    "synth": {"out": _PATH, **_SHARED, **_flags(SYNTH)},
    # an unset --batch-size gets the table's default; content mode rejects a set one
    "train": {"data": _PATH, "out": _PATH, **_SHARED, **_flags(TRAIN), "batch_size": (None, int)},
    "eval": {
        "data": _PATH, "out": _PATH, **_SHARED,
        "checkpoint": _PATH,
        "split": ("test", str),
        "k": ("20,60,100", str),
        "content_items": _PATH,
        "content_users": _PATH,
    },
    "gradcheck": {
        "out": _PATH, "seed": (TRAIN["seed"].default, int), **_SHARED,
        "kind": ("all", str),
        "tolerance": (1e-4, float),
    },
    "export-content": {
        "data": _PATH, "out": _PATH, **_SHARED,
        "checkpoint": _PATH,
        "no_binary": (False, bool),
    },
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """Raises each parse error as ValueError("<command>: <message>"), so
    main prints it as one line; --help still prints and exits."""

    def error(self, message):
        command = self.prog.partition(" ")[2]  # "kgrec train" -> "train"
        raise ValueError(f"{command}: {message}" if command else message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kgrec", description="Knowledge-graph recommender: data prep, training, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _DEFAULTS.items():
        p = sub.add_parser(command)
        for name, (_default, typ) in spec.items():
            kind = {"action": "store_true"} if typ is bool else {"type": typ}
            p.add_argument(_flag(name), default=None, **kind)  # None: not given
    return parser


def _coerce(raw: str, typ, what: str):
    if typ is bool:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{what}: cannot parse {raw!r} as boolean")
    try:
        return typ(raw.strip())
    except ValueError:
        raise ValueError(f"{what}: cannot parse {raw!r} as {typ.__name__}") from None


def _read_config_file(path: str, spec: dict) -> dict:
    """A config file's key=value lines, parsed by key type; each error names file:line."""
    values = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise ValueError(f"{where}: not UTF-8") from None
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{where}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in spec:
                raise ValueError(f"{where}: unknown config key {key!r}")
            values[key] = _coerce(value, spec[key][1], f"{where}: config key {key!r}")
    return values


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Defaults, overlaid by --config file values, overlaid by explicit flags."""
    spec = _DEFAULTS[command]
    resolved = {k: default for k, (default, _t) in spec.items()}
    if args.config:
        resolved.update(_read_config_file(args.config, spec))
        resolved["config"] = args.config
    for key in spec:
        if getattr(args, key) is not None:
            resolved[key] = getattr(args, key)
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


def _write_out(opts: dict, command: str, name: str | None = None, text: str = "") -> None:
    """With --out, write `text` to --out/<name> when a name is given, then run.meta."""
    out = opts.get("out")
    if not out:
        return
    from .numeric import write_text_atomic

    out_dir = Path(out)
    if name:
        write_text_atomic(out_dir / name, text)
    meta = "".join(f"{key}={opts[key]}\n" for key in sorted(opts))
    write_text_atomic(out_dir / "run.meta", f"command={command}\n{meta}")


def _check_flags(opts: dict, command: str, table: dict) -> None:
    """`check` every flag of a settings table, naming the flag."""
    for name, s in table.items():
        if s.cli:
            check(f"{command}: {_flag(s.flag or name)}", opts[s.flag or name], s)


def _kwargs(opts: dict, table: dict, target) -> dict:
    """The flag values that `target`, a function or a dataclass, takes, by library name."""
    names = inspect.signature(target).parameters
    return {name: opts[s.flag or name] for name, s in table.items() if s.cli and name in names}


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
    from .data import load_bundle

    data = _require(opts, "data", "prepare")
    bundle = load_bundle(data)
    print(_summary_counts(bundle))
    return 0


def _cmd_synth(opts: dict) -> int:
    from .data import DatasetBundle, SyntheticSpec, make_synthetic_dataset, save_bundle

    out = _require(opts, "out", "synth")
    _check_flags(opts, "synth", SYNTH)
    spec = SyntheticSpec(**_kwargs(opts, SYNTH, SyntheticSpec))
    store, graph, corpus = make_synthetic_dataset(spec, seed=opts["seed"])
    bundle = DatasetBundle(store=store, graph=graph, corpus=corpus)
    save_bundle(bundle, out)
    _write_out(opts, "synth")
    print(_summary_counts(bundle))
    return 0


def _train_config(opts: dict):
    """Check every train flag (naming it in each error), fill in an unset
    --batch-size and build the TrainConfig, before data is read."""
    from .losses import LossWeights
    from .optim import TrainConfig

    mode = opts["mode"]
    if mode not in ("kmpn", "ckmpn", "content"):
        raise ValueError(f"unknown train mode {mode!r}")
    if opts["batch_size"] is None:
        opts["batch_size"] = TRAIN["batch_size"].default
    elif mode == "content":
        raise ValueError("train: --batch-size does not apply to --mode content")
    _check_flags(opts, "train", TRAIN)
    if not opts["lr"] >= opts["lr_end"]:
        raise ValueError("train: --lr must be >= --lr-end")
    if mode == "content" and opts["h"] % 2:
        raise ValueError("train: --h must be even in --mode content")
    if mode != "content" and opts["n_pref"] < 2 and opts["lambda2"] != 0.0:
        raise ValueError(
            "train: --n-pref must be at least 2 when --lambda2 is nonzero "
            "(decorrelation needs two preference rows)"
        )
    if mode == "ckmpn" and not (opts["content_items"] and opts["content_users"]):
        raise ValueError("mode ckmpn requires --content-items and --content-users")
    weights = LossWeights(**_kwargs(opts, TRAIN, LossWeights))
    return TrainConfig(**_kwargs(opts, TRAIN, TrainConfig), weights=weights)


def _cmd_train(opts: dict) -> int:
    from .content import init_content, read_embeddings, save_content_checkpoint, train_content
    from .data import load_bundle
    from .model import init_params, save_checkpoint
    from .training import train_ckmpn, train_kmpn

    data = _require(opts, "data", "train")
    out = Path(_require(opts, "out", "train"))
    mode = opts["mode"]
    config = _train_config(opts)
    bundle = load_bundle(data)

    if mode == "content":
        params = init_content(**_kwargs(opts, TRAIN, init_content))
        trained, lines = train_content(bundle.corpus, bundle.store, params, config)
        save_content_checkpoint(trained, out / "checkpoint.content")
    else:
        counts = (bundle.graph.num_entities, bundle.graph.num_relations, bundle.store.num_users)
        params = init_params(*counts, **_kwargs(opts, TRAIN, init_params))
        if mode == "ckmpn":
            content = (read_embeddings(opts["content_items"]), read_embeddings(opts["content_users"]))
            trained, lines = train_ckmpn(bundle, params, content, config)
        else:
            trained, lines = train_kmpn(bundle, params, config)
        save_checkpoint(trained, out / "checkpoint.kmpn")

    _write_out(opts, "train", "loss.log", "".join(line + "\n" for line in lines))
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

    data = _require(opts, "data", "eval")
    ks = _eval_ks(opts)
    bundle = load_bundle(data)
    split = opts["split"]
    if opts["checkpoint"]:
        ck = opts["checkpoint"]
        params = load_checkpoint(ck)
        for what, have, want in (
            ("entities", params.num_entities, bundle.graph.num_entities),
            ("relations (inverses included)", params.num_relations, bundle.graph.num_relations),
            ("users", params.num_users, bundle.store.num_users),
        ):
            if have != want:
                raise ValueError(f"eval: checkpoint {ck} has {have} {what} but --data {data} has {want}")
        report = evaluate(params, bundle, split, ks=ks)
    else:
        users, items = read_embeddings(opts["content_users"]), read_embeddings(opts["content_items"])
        report = evaluate_embeddings(users, items, bundle, split, ks=ks)
    text = report.render()
    sys.stdout.write(text)
    _write_out(opts, "eval", "report.txt", text)
    return 0


def _cmd_gradcheck(opts: dict) -> int:
    from .training import grad_check

    if not 0 <= opts["tolerance"] < math.inf:  # 0 demands exact gradients: a FAIL, not an error
        raise ValueError("gradcheck: --tolerance must be finite and >= 0")
    check("gradcheck: --seed", opts["seed"], TRAIN["seed"])
    kinds = ("kmpn", "ckmpn", "content") if opts["kind"] == "all" else (opts["kind"],)
    reports = [grad_check(kind, tolerance=opts["tolerance"], seed=opts["seed"]) for kind in kinds]
    text = "\n".join(r.render() for r in reports) + "\n"
    sys.stdout.write(text)
    _write_out(opts, "gradcheck", "gradcheck.txt", text)
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
    _write_out(opts, "export-content")
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
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    try:
        args, unknown = _build_parser().parse_known_args(argv)
        if unknown:
            raise ValueError(f"{args.command}: unrecognized arguments: {' '.join(unknown)}")
        opts = _resolve(args, args.command)
        if opts["deterministic"] and opts["threads"] > 1:
            raise ValueError(f"{args.command}: --deterministic runs one thread; --threads must be 0 or 1")
        _apply_threads(opts)
        return _HANDLERS[args.command](opts)
    except (ValueError, OSError) as exc:
        msg = " ".join(str(exc).split())  # single line
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
