"""Command-line interface: one executable exposing the whole pipeline.

Subcommands: build-dataset, synth, train, evaluate, predict, gradcheck,
explain. Human-readable tables go to stdout; machine-readable JSON is always
written into the --out directory. Exit codes: 0 success, 1 runtime failure,
2 usage error. All randomness flows from --seed through named streams, so
identical invocations produce byte-identical outputs.

A setting comes from its flag, else from the INI file (`OPTIONS` lists what
each section may set), else from the library's own default. A checkpoint
directory holds `checkpoint.json`, `run.json` and, for depression, `vocab.json`;
`evaluate`, `predict` and `explain` read it with one loader, and `evaluate`
scores the rows that `predict` writes.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .corpus import (
    CONTROL,
    DIAGNOSED,
    HashedSentenceEncoder,
    UserRecord,
    Vocabulary,
    atomic_open,
    load_users,
    read_threads,
)
from .databuild import BuildConfig, build_dataset
from .models import (
    RISK_VARIANTS,
    DepressionModel,
    DepressionModelConfig,
    RiskModel,
    RiskModelConfig,
    top_phrases,
)
from .nn import finite_difference_check
from .traineval import (
    SelectionConfig,
    SynthDetectionSpec,
    SynthRiskSpec,
    TrainConfig,
    derive_seed,
    detection_report,
    select_posts,
    stratified_split,
    synth_detection_corpus,
    synth_risk_corpus,
    thread_matrices,
    tokenize_users,
    train_depression,
    train_risk,
    triage_report,
    write_epoch_log,
)

GRADCHECK_THRESHOLD = 1e-4
# Risk settings the library has no default for.
RISK_VARIANT = "cat_ce"
RISK_VAL_FRACTION = 0.15


# ---------------------------------------------------------------------------
# Argument and config plumbing

def _existing_file(value: str) -> str:
    if not Path(value).is_file():
        raise argparse.ArgumentTypeError(f"{value}: no such file")
    return value


def _existing_dir(value: str) -> str:
    if not Path(value).is_dir():
        raise argparse.ArgumentTypeError(f"{value}: no such directory")
    return value


def _dims(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


# The options each INI section may set, with their casts.
OPTIONS = {
    "dataset": {"k": int, "tolerance": float, "min_prior_posts": int,
                "min_positive_votes": int},
    "synth.depression": {"n_positive": int, "n_controls_per": int,
                         "posts_per_user": int, "signal_rate": float,
                         "vocab_size": int},
    "synth.risk": {"n_train": int, "n_test": int, "vocab_size": int,
                   "signal_per_level": int, "drift": float},
    "depression": {"embed_dim": int, "conv_window": int, "conv_filters": int,
                   "merge_window": int, "merge_stride": int, "merge_filters": int,
                   "dense_dims": _dims, "dropout": float, "n_term": int,
                   "n_post": int, "strategy": str, "balance": str,
                   "min_freq": int, "epochs": int, "lr": float},
    "risk": {"variant": str, "encoder_dim": int, "max_sentences": int,
             "val_fraction": float, "epochs": int, "lr": float,
             "conv_filters": int, "pool_n": int, "dropout": float,
             "margin": float, "balance": str, "dense_dims": _dims},
}


@contextlib.contextmanager
def _options(config_path: str | None, section: str, **flags):
    """The section's settings, for the block that builds its configs: flags
    that were given, then the INI file.

    Options the file omits are absent, so the library default applies. A
    value that does not cast fails as `[<section>] <option>: <reason>`, and
    so does a ValueError raised in the block whose message opens with an
    option the file set: every range check opens its message with the field
    it rejects.
    """
    cp = configparser.ConfigParser()
    if config_path is not None:
        with open(config_path, encoding="utf-8") as fh:
            cp.read_file(fh)
    opts = {}
    for option, cast in OPTIONS[section].items():
        if cp.has_option(section, option):
            try:
                opts[option] = cast(cp.get(section, option))
            except ValueError as exc:
                raise ValueError(f"[{section}] {option}: {exc}") from None
    given = {name: value for name, value in flags.items() if value is not None}
    from_file = set(opts) - set(given)
    opts.update(given)
    try:
        yield opts
    except ValueError as exc:
        option, _, reason = str(exc).partition(" ")
        if option not in from_file:
            raise
        raise ValueError(f"[{section}] {option}: {reason}") from None


def _pick(opts: dict, cls) -> dict:
    """The settings that are fields of dataclass `cls`."""
    names = {f.name for f in fields(cls)}
    return {name: value for name, value in opts.items() if name in names}


def _write_json(path: Path, doc) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Runs: users, sentence encoder, checkpoint directory, prediction rows

def _users(posts: Path, labels: Path | None = None, vocab: Vocabulary | None = None,
           **vocab_opts) -> tuple[list[UserRecord], Vocabulary]:
    """A posts file's users in id order, with their posts' token ids.

    Tokens come from `vocab`, or, when it is None, from a vocabulary built
    from these users' own text (`vocab_opts` go to `Vocabulary.from_texts`).
    """
    by_id = load_users(posts, labels)
    users = [by_id[uid] for uid in sorted(by_id)]
    if vocab is None:
        vocab = Vocabulary.from_texts((p.text for u in users for p in u.posts),
                                      **vocab_opts)
    return tokenize_users(users, vocab), vocab


def _sentence_encoder(record) -> HashedSentenceEncoder:
    """The sentence encoder of a run.json "encoder" record: exactly "dim" and "seed"."""
    if not isinstance(record, dict):
        raise ValueError(f"encoder record must be an object, got {record!r}")
    for what, names in (("unknown", set(record) - {"dim", "seed"}),
                        ("missing", {"dim", "seed"} - set(record))):
        if names:
            raise ValueError(f"encoder record has {what} fields {sorted(names)}")
    return HashedSentenceEncoder(**record)


@contextlib.contextmanager
def _run_file(checkpoint: str, name: str, what: str):
    """The path of file ``name`` beside the checkpoint. A KeyError, TypeError
    or ValueError raised in the block fails as ``path: reason``."""
    path = Path(checkpoint).parent / name
    if not path.is_file():
        raise FileNotFoundError(f"{path}: missing {what} (expected next to the checkpoint)")
    try:
        yield path
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_run_dir(checkpoint: str):
    """(run.json, its task's model, the vocabulary or None, and what reads an
    input: a SelectionConfig, or a sentence encoder for risk). The checkpoint loads
    before run.json's task fields are read, so the other task's checkpoint fails on kind."""
    with _run_file(checkpoint, "run.json", "run description") as path:
        run = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(run, dict) or run.get("task") not in ("depression", "risk"):
            raise ValueError("run description must be an object whose task is depression or risk")
    if run["task"] == "risk":
        model, vocab = RiskModel.load(checkpoint)[0], None
    else:
        model = DepressionModel.load(checkpoint)[0]
        with _run_file(checkpoint, "vocab.json", "vocabulary") as path:
            vocab = Vocabulary(json.loads(path.read_text(encoding="utf-8"))["tokens"])
    with _run_file(checkpoint, "run.json", "run description"):
        reader = (_sentence_encoder(run["encoder"]) if vocab is None
                  else SelectionConfig(**run["selection"]))
    return run, model, vocab, reader


def _prediction_rows(model, reader, inputs) -> list[dict]:
    """One predictions.ndjson row per input user (depression, ``reader`` its
    SelectionConfig) or thread (risk, ``reader`` its sentence encoder)."""
    rows = []
    if model.kind == "depression":
        for user in inputs:
            probs = model.classify_user(select_posts(user, reader))
            rows.append({"user_id": user.user_id,
                         "predicted": DIAGNOSED if np.argmax(probs) == 1 else CONTROL,
                         "score": float(probs[1])})
        return rows
    encoded = thread_matrices(inputs, reader, model.config.max_sentences)
    for inst, (target, context, _) in zip(inputs, encoded):
        label, score = model.predict(target, context)
        rows.append({"post_id": inst.target.post_id, "predicted": label.name.lower(),
                     "ordinal": int(label), "score": score})
    return rows


# ---------------------------------------------------------------------------
# Subcommands

def cmd_build_dataset(args) -> int:
    with _options(args.config, "dataset") as opts:
        config = BuildConfig(**opts)
    report = build_dataset(args.posts, args.out, args.annotations, config)
    print(report.to_text())
    if report.n_control_pool == 0:
        print("error: control pool is empty — no eligible control users",
              file=sys.stderr)
        return 1
    return 0


def cmd_synth(args) -> int:
    out = Path(args.out)
    with _options(args.config, f"synth.{args.task}") as opts:
        spec_cls = SynthDetectionSpec if args.task == "depression" else SynthRiskSpec
        spec = spec_cls(**opts, seed=args.seed)
    write = synth_detection_corpus if args.task == "depression" else synth_risk_corpus
    paths = write(spec, out)
    _write_json(out / "synth.json", {
        "task": args.task,
        "spec": asdict(spec),
        "files": {key: str(path) for key, path in sorted(paths.items())},
    })
    print(f"wrote {len(paths)} corpus files to {out}")
    return 0


def _finish_training(args, out: Path, model: DepressionModel | RiskModel, result,
                     train_config: TrainConfig, metric: str, **run) -> int:
    """The end of both train commands: print the epoch lines, save the
    checkpoint, write run.json (the task's own ``run`` fields beside the ones
    both tasks share) and train_log.ndjson, and print the closing lines."""
    for row in result.log:
        if row["split"] == "train":
            print(f"epoch {row['epoch']:>3} train loss {row['loss']:.4f}")
        else:
            metrics = " ".join(f"{k} {row[k]:.4f}"
                               for k in sorted(row) if k not in ("epoch", "split"))
            print(f"epoch {row['epoch']:>3} validation {metrics}")
    model.save(out / "checkpoint.json", seed=args.seed, step=train_config.epochs)
    _write_json(out / "run.json", {
        **run, "task": model.kind, "seed": args.seed, "data": str(Path(args.data)),
        "epochs": train_config.epochs, "lr": train_config.lr,
        "best_epoch": result.best_epoch, "best_metric": result.best_metric})
    write_epoch_log(out / "train_log.ndjson", result.log)
    print(f"best epoch {result.best_epoch} validation {metric} {result.best_metric:.4f}")
    print(f"checkpoint written to {out / 'checkpoint.json'}")
    return 0


def _train_depression_cmd(args, out: Path) -> int:
    data = Path(args.data)
    with _options(args.config, "depression", n_term=args.n_term, strategy=args.strategy,
                  n_post=args.n_post, epochs=args.epochs) as opts:
        vocab_opts = {"min_freq": opts["min_freq"]} if "min_freq" in opts else {}
        train_users, vocab = _users(data / "train.posts.ndjson",
                                    data / "train.labels.ndjson", **vocab_opts)
        val_users, _ = _users(data / "validation.posts.ndjson",
                              data / "validation.labels.ndjson", vocab)
        model_config = DepressionModelConfig(vocab_size=len(vocab),
                                             **_pick(opts, DepressionModelConfig))
        # Posts are cut to the model's n_term, however it was set.
        selection = SelectionConfig(**{**_pick(opts, SelectionConfig),
                                       "n_term": model_config.n_term,
                                       "seed": derive_seed(args.seed, "selection")})
        train_config = TrainConfig(**_pick(opts, TrainConfig),
                                   seed=derive_seed(args.seed, "train"))
    model = DepressionModel(model_config, seed=derive_seed(args.seed, "init"))
    result = train_depression(model, train_users, val_users, selection, train_config)
    _write_json(out / "vocab.json", {"tokens": vocab.tokens()})
    return _finish_training(args, out, model, result, train_config, "f1",
                            selection=asdict(selection))


def _train_risk_cmd(args, out: Path) -> int:
    data = Path(args.data)
    with _options(args.config, "risk", variant=args.variant, epochs=args.epochs) as opts:
        variant = opts.pop("variant", RISK_VARIANT)
        encoder_record = {"seed": derive_seed(args.seed, "encoder")}
        if "encoder_dim" in opts:
            encoder_record["dim"] = opts["encoder_dim"]
        encoder = HashedSentenceEncoder(**encoder_record)
        model_config = RiskModelConfig.for_variant(variant, sentence_dim=encoder.dim,
                                                   **_pick(opts, RiskModelConfig))
        train_config = TrainConfig(**_pick(opts, TrainConfig),
                                   seed=derive_seed(args.seed, "train"))
    threads = read_threads(data / "train.threads.ndjson")
    max_sentences = model_config.max_sentences
    val_fraction = opts.get("val_fraction", RISK_VAL_FRACTION)
    val_split_seed = derive_seed(args.seed, "val-split")
    kept, held = stratified_split([int(t.label) for t in threads],
                                  val_fraction, val_split_seed)
    train_data = thread_matrices([threads[i] for i in kept], encoder, max_sentences)
    val_data = thread_matrices([threads[i] for i in held], encoder, max_sentences)
    model = RiskModel(model_config, seed=derive_seed(args.seed, "init"))
    result = train_risk(model, train_data, val_data, train_config)
    return _finish_training(args, out, model, result, train_config, "non-green f1",
                            variant=variant,
                            encoder={"dim": encoder.dim, "seed": encoder.seed},
                            max_sentences=max_sentences, val_fraction=val_fraction,
                            val_split_seed=val_split_seed)


def cmd_train(args) -> int:
    out = Path(args.out)
    if args.task == "depression":
        return _train_depression_cmd(args, out)
    return _train_risk_cmd(args, out)


def _risk_threads_for_split(checkpoint: str, run: dict, data: Path, split: str):
    if split == "test":
        return read_threads(data / "test.threads.ndjson")
    threads = read_threads(data / "train.threads.ndjson")
    if split == "train":
        return threads
    with _run_file(checkpoint, "run.json", "run description"):
        _, held = stratified_split([int(t.label) for t in threads],
                                   run["val_fraction"], run["val_split_seed"])
    return [threads[i] for i in held]


def cmd_evaluate(args) -> int:
    run, model, vocab, reader = _load_run_dir(args.checkpoint)
    data = Path(args.data)
    if model.kind == "depression":
        users, _ = _users(data / f"{args.split}.posts.ndjson",
                          data / f"{args.split}.labels.ndjson", vocab)
        rows = _prediction_rows(model, reader, users)
        report = detection_report([int(u.label == DIAGNOSED) for u in users],
                                  [int(row["predicted"] == DIAGNOSED) for row in rows])
    else:
        threads = _risk_threads_for_split(args.checkpoint, run, data, args.split)
        rows = _prediction_rows(model, reader, threads)
        report = triage_report([int(t.label) for t in threads],
                               [row["ordinal"] for row in rows])
    print(report.to_text())
    _write_json(Path(args.out) / f"eval.{args.split}.json", report.to_json_dict())
    return 0


def cmd_predict(args) -> int:
    _, model, vocab, reader = _load_run_dir(args.checkpoint)
    out = Path(args.out)
    if model.kind == "depression":
        inputs, _ = _users(Path(args.input), vocab=vocab)
    else:
        inputs = read_threads(args.input)
    rows = _prediction_rows(model, reader, inputs)
    write_epoch_log(out / "predictions.ndjson", rows)
    print(f"wrote {len(rows)} predictions to {out / 'predictions.ndjson'}")
    return 0


def _perturbed(model, rng) -> None:
    """Move every parameter off its init so no gradient path starts at zero."""
    for name in model.params.names():
        arr = model.params[name]
        arr += rng.normal(0.0, 0.1, size=arr.shape)


def _gradcheck_depression(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(derive_seed(seed, "gradcheck:depression"))
    config = DepressionModelConfig(vocab_size=24, embed_dim=5, conv_filters=4,
                                   merge_window=3, merge_stride=3, merge_filters=4,
                                   dense_dims=(6,), dropout=0.25, n_term=10)
    model = DepressionModel(config, seed=int(rng.integers(2 ** 31)))
    _perturbed(model, rng)
    posts = [tuple(int(t) for t in rng.integers(0, 24, size=int(rng.integers(4, 9))))
             for _ in range(3)]
    mask_seed = int(rng.integers(2 ** 31))

    def loss_fn(nodes):
        return model.loss(posts, 1, nodes, train=True,
                          rng=np.random.default_rng(mask_seed))

    errors = finite_difference_check(loss_fn, model.params)
    return {f"depression/{name}": err for name, err in errors.items()}


def _gradcheck_risk(variant: str, seed: int) -> dict[str, float]:
    rng = np.random.default_rng(derive_seed(seed, f"gradcheck:risk:{variant}"))
    config = RiskModelConfig(variant=variant, sentence_dim=4, conv_filters=3,
                             pool_n=2, dense_dims=(5,), dropout=0.25,
                             max_sentences=5)
    model = RiskModel(config, seed=int(rng.integers(2 ** 31)))
    _perturbed(model, rng)
    target = rng.normal(0.0, 1.0, size=(5, 4))
    context = rng.normal(0.0, 1.0, size=(5, 4))
    mask_seed = int(rng.integers(2 ** 31))
    negative = 3

    def loss_fn(nodes):
        return model.loss(target, context, 1, nodes, train=True,
                          rng=np.random.default_rng(mask_seed), negative=negative)

    errors = finite_difference_check(loss_fn, model.params)
    return {f"risk:{variant}/{name}": err for name, err in errors.items()}


def cmd_gradcheck(args) -> int:
    results: dict[str, float] = {}
    if args.task in ("depression", "all"):
        results.update(_gradcheck_depression(args.seed))
    if args.task in ("risk", "all"):
        for variant in RISK_VARIANTS:
            results.update(_gradcheck_risk(variant, args.seed))
    all_pass = all(err < GRADCHECK_THRESHOLD for err in results.values())
    width = max(len(name) for name in results) + 2
    print(f"{'parameter':<{width}}{'max rel err':>14}  status")
    for name in sorted(results):
        status = "ok" if results[name] < GRADCHECK_THRESHOLD else "FAIL"
        print(f"{name:<{width}}{results[name]:>14.3e}  {status}")
    print(f"{'all parameters pass' if all_pass else 'FAILURES detected'} "
          f"(threshold {GRADCHECK_THRESHOLD:g})")
    _write_json(Path(args.out) / "gradcheck.json", {
        "threshold": GRADCHECK_THRESHOLD,
        "results": results,
        "pass": all_pass,
    })
    return 0 if all_pass else 1


def cmd_explain(args) -> int:
    if args.top < 1:
        raise ValueError(f"--top must be at least 1, got {args.top}")
    _, model, vocab, _ = _load_run_dir(args.checkpoint)
    if model.kind != "depression":
        raise ValueError("explain requires a depression checkpoint")
    data = Path(args.data)
    users, _ = _users(data / f"{args.split}.posts.ndjson",
                      data / f"{args.split}.labels.ndjson", vocab)
    users_iter = [(u.user_id, [(p.post_id, p.tokens) for p in u.posts]) for u in users]
    phrases = top_phrases(model, users_iter, args.top, vocab)
    print(f"{'score':>10}  {'post':<16} phrase")
    for post_id, tokens, score in phrases:
        print(f"{score:>10.4f}  {post_id:<16} {' '.join(str(t) for t in tokens)}")
    _write_json(Path(args.out) / "phrases.json", [
        {"post_id": post_id, "tokens": list(tokens), "score": score}
        for post_id, tokens, score in phrases
    ])
    return 0


# ---------------------------------------------------------------------------
# Parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triagekit",
        description="Dataset construction, training, and evaluation for "
                    "depression detection and risk triage models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed_default=None):
        p.add_argument("--config", type=_existing_file,
                       help="INI config file; flags override its values")
        p.add_argument("--out", required=True,
                       help="output directory (created if absent)")
        p.add_argument("--seed", type=int, default=seed_default,
                       help="master seed for all randomness")

    p = sub.add_parser("build-dataset",
                       help="match diagnosed users with controls into splits")
    add_common(p)
    p.add_argument("--posts", required=True, type=_existing_file,
                   help="posts ndjson file")
    p.add_argument("--annotations", type=_existing_file,
                   help="optional annotation votes ndjson")
    p.set_defaults(func=cmd_build_dataset, needs_seed=False)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    add_common(p)
    p.add_argument("--task", required=True, choices=("depression", "risk"))
    p.set_defaults(func=cmd_synth, needs_seed=True)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    add_common(p)
    p.add_argument("--task", required=True, choices=("depression", "risk"))
    p.add_argument("--variant", choices=RISK_VARIANTS,
                   help="risk model variant (risk task only)")
    p.add_argument("--data", required=True, type=_existing_dir,
                   help="dataset directory")
    p.add_argument("--epochs", type=int)
    p.add_argument("--n-post", type=int, dest="n_post",
                   help="posts selected per user (depression)")
    p.add_argument("--n-term", type=int, dest="n_term",
                   help="tokens kept per post (depression)")
    p.add_argument("--strategy", choices=("earliest", "latest", "random"),
                   help="post selection strategy (depression)")
    p.set_defaults(func=cmd_train, needs_seed=True)

    p = sub.add_parser("evaluate", help="score a checkpoint on a dataset split")
    add_common(p)
    p.add_argument("--checkpoint", required=True, type=_existing_file)
    p.add_argument("--data", required=True, type=_existing_dir)
    p.add_argument("--split", required=True,
                   choices=("train", "validation", "test"))
    p.set_defaults(func=cmd_evaluate, needs_seed=False)

    p = sub.add_parser("predict", help="label new inputs with a checkpoint")
    add_common(p)
    p.add_argument("--checkpoint", required=True, type=_existing_file)
    p.add_argument("--input", required=True, type=_existing_file,
                   help="posts ndjson (depression) or threads ndjson (risk)")
    p.set_defaults(func=cmd_predict, needs_seed=False)

    p = sub.add_parser("gradcheck",
                       help="finite-difference verification of all gradients")
    add_common(p, seed_default=0)
    p.add_argument("--task", choices=("depression", "risk", "all"), default="all")
    p.set_defaults(func=cmd_gradcheck, needs_seed=False)

    p = sub.add_parser("explain",
                       help="report the phrases driving diagnosed predictions")
    add_common(p)
    p.add_argument("--checkpoint", required=True, type=_existing_file)
    p.add_argument("--data", required=True, type=_existing_dir)
    p.add_argument("--split", required=True,
                   choices=("train", "validation", "test"))
    p.add_argument("-m", "--top", type=int, default=20,
                   help="number of phrases to report")
    p.set_defaults(func=cmd_explain, needs_seed=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.needs_seed and args.seed is None:
        parser.error(f"--seed is required for {args.command}")
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except (KeyError, ValueError, RuntimeError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
