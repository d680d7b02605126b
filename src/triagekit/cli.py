"""Command-line interface: one executable exposing the whole pipeline.

Subcommands: build-dataset, synth, train, evaluate, predict, gradcheck,
explain. Human-readable tables go to stdout; machine-readable JSON is always
written into the --out directory. Exit codes: 0 success, 1 runtime failure,
2 usage error. All randomness flows from --seed through named streams, so
identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .corpus import (
    CONTROL,
    DIAGNOSED,
    CorpusFormatError,
    HashedSentenceEncoder,
    Vocabulary,
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


def _read_config(path: str | None) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    return cp


def _cfg(cp: configparser.ConfigParser, section: str, option: str, default, cast):
    """Config value with fallback; flags override by passing through _flag."""
    if cp.has_option(section, option):
        return cast(cp.get(section, option))
    return default


def _flag(value, cp, section, option, default, cast):
    """Resolution order: explicit flag, config file, built-in default."""
    if value is not None:
        return value
    return _cfg(cp, section, option, default, cast)


def _dims(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _print_epoch_lines(log) -> None:
    for row in log:
        if row["split"] == "train":
            print(f"epoch {row['epoch']:>3} train loss {row['loss']:.4f}")
        else:
            metrics = " ".join(f"{k} {row[k]:.4f}"
                               for k in sorted(row) if k not in ("epoch", "split"))
            print(f"epoch {row['epoch']:>3} validation {metrics}")


# ---------------------------------------------------------------------------
# Subcommands

def cmd_build_dataset(args) -> int:
    cp = _read_config(args.config)
    config = BuildConfig(
        k=_cfg(cp, "dataset", "k", 12, int),
        tol=_cfg(cp, "dataset", "tolerance", 0.10, float),
        min_prior_posts=_cfg(cp, "dataset", "min_prior_posts", 100, int),
        min_positive_votes=_cfg(cp, "dataset", "min_positive_votes", 2, int),
    )
    report = build_dataset(args.posts, args.out, args.annotations, config)
    print(report.to_text())
    if report.n_control_pool == 0:
        print("error: control pool is empty — no eligible control users",
              file=sys.stderr)
        return 1
    return 0


def cmd_synth(args) -> int:
    cp = _read_config(args.config)
    out = Path(args.out)
    if args.task == "depression":
        spec = SynthDetectionSpec(
            n_positive=_cfg(cp, "synth.depression", "n_positive", 200, int),
            n_controls_per=_cfg(cp, "synth.depression", "n_controls_per", 3, int),
            posts_per_user=_cfg(cp, "synth.depression", "posts_per_user", 50, int),
            signal_rate=_cfg(cp, "synth.depression", "signal_rate", 0.05, float),
            vocab_size=_cfg(cp, "synth.depression", "vocab_size", 2000, int),
            seed=args.seed,
        )
        paths = synth_detection_corpus(spec, out)
    else:
        spec = SynthRiskSpec(
            n_train=_cfg(cp, "synth.risk", "n_train", 800, int),
            n_test=_cfg(cp, "synth.risk", "n_test", 200, int),
            vocab_size=_cfg(cp, "synth.risk", "vocab_size", 500, int),
            signal_per_level=_cfg(cp, "synth.risk", "signal_per_level", 3, int),
            drift=_cfg(cp, "synth.risk", "drift", 0.1, float),
            seed=args.seed,
        )
        paths = synth_risk_corpus(spec, out)
    _write_json(out / "synth.json", {
        "task": args.task,
        "spec": asdict(spec),
        "files": {key: str(path) for key, path in sorted(paths.items())},
    })
    print(f"wrote {len(paths)} corpus files to {out}")
    return 0


def _train_depression_cmd(args, cp, out: Path) -> int:
    data = Path(args.data)
    train_users = load_users(data / "train.posts.ndjson",
                             data / "train.labels.ndjson")
    val_users = load_users(data / "validation.posts.ndjson",
                           data / "validation.labels.ndjson")
    vocab = Vocabulary.from_texts(
        (p.text for u in train_users.values() for p in u.posts),
        min_freq=_cfg(cp, "depression", "min_freq", 5, int))
    n_term = _flag(args.n_term, cp, "depression", "n_term", 100, int)
    model_config = DepressionModelConfig(
        vocab_size=len(vocab),
        embed_dim=_cfg(cp, "depression", "embed_dim", 50, int),
        conv_window=_cfg(cp, "depression", "conv_window", 3, int),
        conv_filters=_cfg(cp, "depression", "conv_filters", 25, int),
        merge_window=_cfg(cp, "depression", "merge_window", 15, int),
        merge_stride=_cfg(cp, "depression", "merge_stride", 15, int),
        merge_filters=_cfg(cp, "depression", "merge_filters", 25, int),
        dense_dims=_cfg(cp, "depression", "dense_dims", (50,), _dims),
        dropout=_cfg(cp, "depression", "dropout", 0.0, float),
        n_term=n_term,
        balance=_cfg(cp, "depression", "balance", "sampled", str),
    )
    selection = SelectionConfig(
        strategy=_flag(args.strategy, cp, "depression", "strategy", "random", str),
        n_post=_flag(args.n_post, cp, "depression", "n_post", 1500, int),
        n_term=n_term,
        seed=derive_seed(args.seed, "selection"),
    )
    train_config = TrainConfig(
        epochs=_flag(args.epochs, cp, "depression", "epochs", 20, int),
        lr=_cfg(cp, "depression", "lr", 1e-3, float),
        seed=derive_seed(args.seed, "train"),
    )
    model = DepressionModel(model_config, seed=derive_seed(args.seed, "init"))
    result = train_depression(model, list(train_users.values()),
                              list(val_users.values()), selection, train_config)
    _print_epoch_lines(result.log)
    model.save(out / "checkpoint.json", seed=args.seed, step=train_config.epochs)
    _write_json(out / "vocab.json", {"tokens": vocab.tokens()})
    _write_json(out / "run.json", {
        "task": "depression",
        "seed": args.seed,
        "data": str(data),
        "selection": {"strategy": selection.strategy, "n_post": selection.n_post,
                      "n_term": selection.n_term, "seed": selection.seed},
        "epochs": train_config.epochs,
        "lr": train_config.lr,
        "best_epoch": result.best_epoch,
        "best_metric": result.best_metric,
    })
    write_epoch_log(out / "train_log.ndjson", result.log)
    print(f"best epoch {result.best_epoch} validation f1 {result.best_metric:.4f}")
    print(f"checkpoint written to {out / 'checkpoint.json'}")
    return 0


def _train_risk_cmd(args, cp, out: Path) -> int:
    data = Path(args.data)
    threads = read_threads(data / "train.threads.ndjson")
    variant = _flag(args.variant, cp, "risk", "variant", "cat_ce", str)
    encoder = HashedSentenceEncoder(
        dim=_cfg(cp, "risk", "encoder_dim", 7200, int),
        seed=derive_seed(args.seed, "encoder"))
    max_sentences = _cfg(cp, "risk", "max_sentences", 20, int)
    overrides: dict = {"max_sentences": max_sentences}
    for key, cast in (("conv_filters", int), ("pool_n", int), ("dropout", float),
                      ("margin", float), ("balance", str), ("dense_dims", _dims)):
        if cp.has_option("risk", key):
            overrides[key] = cast(cp.get("risk", key))
    model_config = RiskModelConfig.for_variant(variant, sentence_dim=encoder.dim,
                                               **overrides)
    val_fraction = _cfg(cp, "risk", "val_fraction", 0.15, float)
    val_split_seed = derive_seed(args.seed, "val-split")
    kept, held = stratified_split([int(t.label) for t in threads],
                                  val_fraction, val_split_seed)
    train_data = thread_matrices([threads[i] for i in kept], encoder, max_sentences)
    val_data = thread_matrices([threads[i] for i in held], encoder, max_sentences)
    train_config = TrainConfig(
        epochs=_flag(args.epochs, cp, "risk", "epochs", 20, int),
        lr=_cfg(cp, "risk", "lr", 1e-3, float),
        seed=derive_seed(args.seed, "train"),
    )
    model = RiskModel(model_config, seed=derive_seed(args.seed, "init"))
    result = train_risk(model, train_data, val_data, train_config)
    _print_epoch_lines(result.log)
    model.save(out / "checkpoint.json", seed=args.seed, step=train_config.epochs)
    _write_json(out / "run.json", {
        "task": "risk",
        "variant": variant,
        "seed": args.seed,
        "data": str(data),
        "encoder": {"dim": encoder.dim, "seed": encoder.seed},
        "max_sentences": max_sentences,
        "val_fraction": val_fraction,
        "val_split_seed": val_split_seed,
        "epochs": train_config.epochs,
        "lr": train_config.lr,
        "best_epoch": result.best_epoch,
        "best_metric": result.best_metric,
    })
    write_epoch_log(out / "train_log.ndjson", result.log)
    print(f"best epoch {result.best_epoch} validation non-green f1 "
          f"{result.best_metric:.4f}")
    print(f"checkpoint written to {out / 'checkpoint.json'}")
    return 0


def cmd_train(args) -> int:
    cp = _read_config(args.config)
    out = Path(args.out)
    if args.task == "depression":
        return _train_depression_cmd(args, cp, out)
    return _train_risk_cmd(args, cp, out)


def _load_run(checkpoint: str) -> dict:
    run_path = Path(checkpoint).parent / "run.json"
    if not run_path.is_file():
        raise FileNotFoundError(
            f"{run_path}: missing run description (expected next to the checkpoint)")
    return json.loads(run_path.read_text(encoding="utf-8"))


def _load_vocab(checkpoint: str) -> Vocabulary:
    vocab_path = Path(checkpoint).parent / "vocab.json"
    if not vocab_path.is_file():
        raise FileNotFoundError(
            f"{vocab_path}: missing vocabulary (expected next to the checkpoint)")
    return Vocabulary(json.loads(vocab_path.read_text(encoding="utf-8"))["tokens"])


def _depression_predictions(model: DepressionModel, users, selection: SelectionConfig):
    rows = []
    for uid in sorted(users):
        posts = select_posts(users[uid], selection)
        probs = model.classify_user(posts)
        pred = int(np.argmax(probs))
        rows.append({"user_id": uid,
                     "predicted": DIAGNOSED if pred == 1 else CONTROL,
                     "score": float(probs[1])})
    return rows


def _risk_threads_for_split(run: dict, data: Path, split: str):
    if split == "test":
        return read_threads(data / "test.threads.ndjson")
    threads = read_threads(data / "train.threads.ndjson")
    if split == "train":
        return threads
    _, held = stratified_split([int(t.label) for t in threads],
                               run["val_fraction"], run["val_split_seed"])
    return [threads[i] for i in held]


def cmd_evaluate(args) -> int:
    run = _load_run(args.checkpoint)
    data = Path(args.data)
    out = Path(args.out)
    if run["task"] == "depression":
        model, _, _ = DepressionModel.load(args.checkpoint)
        vocab = _load_vocab(args.checkpoint)
        users = load_users(data / f"{args.split}.posts.ndjson",
                           data / f"{args.split}.labels.ndjson")
        tokenized = tokenize_users(
            (users[uid] for uid in sorted(users)), vocab)
        selection = SelectionConfig(**run["selection"])
        gold = [int(u.label == DIAGNOSED) for u in tokenized]
        pred = [int(np.argmax(model.classify_user(select_posts(u, selection))))
                for u in tokenized]
        report = detection_report(gold, pred)
    else:
        model, _, _ = RiskModel.load(args.checkpoint)
        threads = _risk_threads_for_split(run, data, args.split)
        encoder = HashedSentenceEncoder(dim=run["encoder"]["dim"],
                                        seed=run["encoder"]["seed"])
        encoded = thread_matrices(threads, encoder, run["max_sentences"])
        gold = [y for _, _, y in encoded]
        pred = [int(model.classify(t, c)) for t, c, _ in encoded]
        report = triage_report(gold, pred)
    print(report.to_text())
    _write_json(out / f"eval.{args.split}.json", report.to_json_dict())
    return 0


def cmd_predict(args) -> int:
    run = _load_run(args.checkpoint)
    out = Path(args.out)
    if run["task"] == "depression":
        model, _, _ = DepressionModel.load(args.checkpoint)
        vocab = _load_vocab(args.checkpoint)
        users = load_users(args.input)
        tokenized = {u.user_id: u for u in tokenize_users(users.values(), vocab)}
        selection = SelectionConfig(**run["selection"])
        rows = _depression_predictions(model, tokenized, selection)
    else:
        model, _, _ = RiskModel.load(args.checkpoint)
        encoder = HashedSentenceEncoder(dim=run["encoder"]["dim"],
                                        seed=run["encoder"]["seed"])
        threads = read_threads(args.input)
        encoded = thread_matrices(threads, encoder, run["max_sentences"])
        rows = []
        for inst, (target, context, _) in zip(threads, encoded):
            label, score = model.predict(target, context)
            rows.append({"post_id": inst.target.post_id,
                         "predicted": label.name.lower(),
                         "ordinal": int(label), "score": score})
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
    run = _load_run(args.checkpoint)
    if run["task"] != "depression":
        raise ValueError("explain requires a depression checkpoint")
    model, _, _ = DepressionModel.load(args.checkpoint)
    vocab = _load_vocab(args.checkpoint)
    data = Path(args.data)
    users = load_users(data / f"{args.split}.posts.ndjson",
                       data / f"{args.split}.labels.ndjson")
    n_term = run["selection"]["n_term"]
    tokenized = tokenize_users((users[uid] for uid in sorted(users)), vocab)
    users_iter = [(u.user_id, [(p.post_id, p.tokens[:n_term]) for p in u.posts])
                  for u in tokenized]
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
    except (CorpusFormatError, FileNotFoundError, NotADirectoryError, KeyError,
            ValueError, RuntimeError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
