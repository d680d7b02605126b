import configparser
import hashlib
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from triagekit.cli import OPTIONS, main
from triagekit.corpus import CONTROL, DIAGNOSED, TokenizedUser, Vocabulary, load_users
from triagekit.models import DepressionModel, DepressionModelConfig
from triagekit.nn import ParamStore
from triagekit.traineval import (
    SelectionConfig,
    SynthDetectionSpec,
    SynthRiskSpec,
    TrainConfig,
    derive_seed,
    tokenize_users,
    train_depression,
)

from test_nn import FORMAT_1_DOC, join_checkpoint, split_checkpoint


def run_cli(argv):
    return main(list(argv))


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_ndjson(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# A checkpoint that is perfect by construction: one conv filter fires only on
# the exact planted trigram, so every signal user scores positive and every
# background-only user sits exactly on the uniform output.

VOCAB_TOKENS = ["sig0", "sig1", "sig2"] + [f"w{i}" for i in range(10)]
# reserved ids 0/1 are pad/unk, so sig0..sig2 land on ids 2..4
SIG_IDS = (2, 3, 4)


def planted_model():
    config = DepressionModelConfig(
        vocab_size=2 + len(VOCAB_TOKENS), embed_dim=5, conv_window=3,
        conv_filters=1, merge_window=2, merge_stride=2, merge_filters=1,
        dense_dims=(1,), dropout=0.0, n_term=12)
    p = ParamStore()
    emb = np.zeros((config.vocab_size, config.embed_dim))
    for axis, token_id in enumerate(SIG_IDS):
        emb[token_id, axis] = 1.0
    p.add("emb", emb)
    conv_w = np.zeros((config.embed_dim, 3, 1))
    for k in range(3):
        conv_w[k, k, 0] = 1.0
    p.add("conv.w", conv_w)
    p.add("conv.b", np.array([-2.5]))
    p.add("merge.w", np.ones((1, 2, 1)))
    p.add("merge.b", np.zeros(1))
    p.add("dense0.w", np.ones((1, 1)))
    p.add("dense0.b", np.zeros(1))
    p.add("out.w", np.array([[0.0], [10.0]]))
    p.add("out.b", np.zeros(2))
    return DepressionModel(config, params=p)


@pytest.fixture(scope="module")
def planted_run(tmp_path_factory):
    """Checkpoint dir + corpus dir for a model with perfect predictions."""
    root = tmp_path_factory.mktemp("planted")
    ckpt_dir = root / "run"
    data_dir = root / "data"
    ckpt_dir.mkdir()
    data_dir.mkdir()

    planted_model().save(ckpt_dir / "checkpoint.json", seed=0, step=0)
    (ckpt_dir / "vocab.json").write_text(json.dumps({"tokens": VOCAB_TOKENS}))
    (ckpt_dir / "run.json").write_text(json.dumps({
        "task": "depression", "seed": 0, "data": str(data_dir),
        "selection": {"strategy": "earliest", "n_post": 10, "n_term": 12, "seed": 0},
        "epochs": 0, "lr": 0.0, "best_epoch": -1, "best_metric": -1.0,
    }))

    posts, labels = [], []
    for i in range(3):
        uid = f"pos{i}"
        posts.append({"post_id": f"{uid}-a", "user_id": uid, "community": "c",
                      "timestamp": 0, "text": "w0 sig0 sig1 sig2 w1"})
        posts.append({"post_id": f"{uid}-b", "user_id": uid, "community": "c",
                      "timestamp": 1, "text": "w2 w3 w4"})
        labels.append({"user_id": uid, "label": DIAGNOSED,
                       "diagnosis_post_id": f"{uid}-a"})
    for i in range(3):
        uid = f"ctl{i}"
        posts.append({"post_id": f"{uid}-a", "user_id": uid, "community": "c",
                      "timestamp": 0, "text": "w0 w1 w2"})
        posts.append({"post_id": f"{uid}-b", "user_id": uid, "community": "c",
                      "timestamp": 1, "text": "w3 w4 w5"})
        labels.append({"user_id": uid, "label": CONTROL})
    write_ndjson(data_dir / "test.posts.ndjson", posts)
    write_ndjson(data_dir / "test.labels.ndjson", labels)
    return ckpt_dir, data_dir


def test_evaluate_perfect_checkpoint(planted_run, tmp_path, capsys):
    ckpt_dir, data_dir = planted_run
    rc = run_cli(["evaluate", "--checkpoint", str(ckpt_dir / "checkpoint.json"),
                  "--data", str(data_dir), "--split", "test",
                  "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1.0000" in out
    doc = json.loads((tmp_path / "eval.test.json").read_text())
    assert doc["accuracy"] == 1.0
    assert all(row["f1"] == 1.0 for row in doc["per_class"])
    assert doc["n_instances"] == 6


def test_predict_matches_labels(planted_run, tmp_path, capsys):
    ckpt_dir, data_dir = planted_run
    rc = run_cli(["predict", "--checkpoint", str(ckpt_dir / "checkpoint.json"),
                  "--input", str(data_dir / "test.posts.ndjson"),
                  "--out", str(tmp_path)])
    assert rc == 0
    assert "wrote 6 predictions" in capsys.readouterr().out
    rows = [json.loads(line) for line in
            (tmp_path / "predictions.ndjson").read_text().splitlines()]
    assert [r["user_id"] for r in rows] == sorted(r["user_id"] for r in rows)
    for row in rows:
        if row["user_id"].startswith("pos"):
            assert row["predicted"] == DIAGNOSED and row["score"] > 0.5
        else:
            assert row["predicted"] == CONTROL and row["score"] == 0.5


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_predict_and_evaluate_build_no_post(planted_run, tmp_path, monkeypatch, command):
    # Users are read as columns: no Post is made after tokenizing, and the
    # output is the same byte for byte.
    ckpt_dir, data_dir = planted_run
    inputs = (["--input", str(data_dir / "test.posts.ndjson")] if command == "predict"
              else ["--data", str(data_dir), "--split", "test"])
    outputs = []
    for out in (tmp_path / "columns", tmp_path / "posts"):
        with monkeypatch.context() as patch:
            if out.name == "columns":
                patch.setattr(TokenizedUser, "posts", property(lambda user: 1 / 0))
            assert run_cli([command, "--checkpoint", str(ckpt_dir / "checkpoint.json"),
                            *inputs, "--out", str(out)]) == 0
        outputs.append(next(out.iterdir()).read_bytes())
    assert outputs[0] == outputs[1]


def test_predict_empty_input(planted_run, tmp_path):
    ckpt_dir, _ = planted_run
    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    rc = run_cli(["predict", "--checkpoint", str(ckpt_dir / "checkpoint.json"),
                  "--input", str(empty), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "predictions.ndjson").read_text() == ""


@pytest.mark.parametrize("field, value, message", [
    ("text", None, "text must be a string, got null"),
    ("user_id", {"x": 1}, "user_id must be a string or a number, got an object"),
    ("timestamp", 1.7, "timestamp must be an integer, got 1.7"),
    ("timestamp", True, "timestamp must be an integer, got a boolean"),
], ids=["null_text", "object_user_id", "fractional_timestamp", "boolean_timestamp"])
def test_predict_post_field_of_the_wrong_kind_names_file_and_line(planted_run, tmp_path,
                                                                  capsys, field, value,
                                                                  message):
    # Each of these was once read as a value (the word "none", the user
    # "{'x': 1}", timestamp 1), and predict exited 0.
    ckpt_dir, data_dir = planted_run
    posts = tmp_path / "posts.ndjson"
    rows = [json.loads(line) for line in
            (data_dir / "test.posts.ndjson").read_text().splitlines()]
    rows[1][field] = value
    write_ndjson(posts, rows)
    rc = run_cli(["predict", "--checkpoint", str(ckpt_dir / "checkpoint.json"),
                  "--input", str(posts), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {posts}:2: bad post row: {message}\n"
    assert not (tmp_path / "out" / "predictions.ndjson").exists()


def test_explain_recovers_planted_phrase(planted_run, tmp_path, capsys):
    ckpt_dir, data_dir = planted_run
    rc = run_cli(["explain", "--checkpoint", str(ckpt_dir / "checkpoint.json"),
                  "--data", str(data_dir), "--split", "test",
                  "--top", "3", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sig0 sig1 sig2" in out
    rows = json.loads((tmp_path / "phrases.json").read_text())
    assert len(rows) == 3
    assert all(row["tokens"] == ["sig0", "sig1", "sig2"] for row in rows)
    assert all(row["post_id"].endswith("-a") for row in rows)
    scores = [row["score"] for row in rows]
    assert scores == sorted(scores, reverse=True)
    assert all(s > 0 for s in scores)


def test_explain_reads_the_posts_predict_reads(planted_run, tmp_path, capsys):
    # With the latest post alone selected, the planted "-a" posts, the first
    # of each user, are never read, so no phrase can come from them.
    ckpt_dir, data_dir = planted_run
    run = json.loads((ckpt_dir / "run.json").read_text())
    run["selection"].update(strategy="latest", n_post=1)
    for name in ("checkpoint.json", "vocab.json"):
        (tmp_path / name).write_bytes((ckpt_dir / name).read_bytes())
    (tmp_path / "run.json").write_text(json.dumps(run))
    rc = run_cli(["explain", "--checkpoint", str(tmp_path / "checkpoint.json"),
                  "--data", str(data_dir), "--split", "test", "--out", str(tmp_path)])
    assert rc == 0
    rows = json.loads((tmp_path / "phrases.json").read_text())
    assert len(rows) == 6 and all(row["post_id"].endswith("-b") for row in rows), rows
    capsys.readouterr()


def test_explain_rejects_risk_checkpoint(planted_run, tmp_path, capsys):
    ckpt_dir, data_dir = planted_run
    other = tmp_path / "riskish"
    other.mkdir()
    (other / "checkpoint.json").write_bytes(
        (ckpt_dir / "checkpoint.json").read_bytes())
    run = json.loads((ckpt_dir / "run.json").read_text())
    run["task"] = "risk"
    (other / "run.json").write_text(json.dumps(run))
    rc = run_cli(["explain", "--checkpoint", str(other / "checkpoint.json"),
                  "--data", str(data_dir), "--split", "test",
                  "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("top", ["0", "-1"])
def test_explain_rejects_fewer_than_one_phrase(planted_run, tmp_path, capsys, top):
    ckpt_dir, data_dir = planted_run
    rc = run_cli(["explain", "--checkpoint", str(ckpt_dir / "checkpoint.json"),
                  "--data", str(data_dir), "--split", "test",
                  "--top", top, "--out", str(tmp_path)])
    assert rc == 1
    assert f"error: --top must be at least 1, got {top}" in capsys.readouterr().err
    assert not (tmp_path / "phrases.json").exists()


def test_evaluate_bad_label_row_names_its_line(planted_run, tmp_path, capsys):
    ckpt_dir, data_dir = planted_run
    data = tmp_path / "data"
    data.mkdir()
    (data / "test.posts.ndjson").write_bytes((data_dir / "test.posts.ndjson").read_bytes())
    labels = (data_dir / "test.labels.ndjson").read_text().replace(
        f'"label": "{DIAGNOSED}"', '"label": "depressed"', 1)
    (data / "test.labels.ndjson").write_text(labels)
    rc = run_cli(["evaluate", "--checkpoint", str(ckpt_dir / "checkpoint.json"),
                  "--data", str(data), "--split", "test", "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data / 'test.labels.ndjson'}:1: bad label row: "
                          "unknown user label 'depressed'"), err


def test_evaluate_label_row_without_posts_names_the_user(planted_run, tmp_path, capsys):
    ckpt_dir, data_dir = planted_run
    data = tmp_path / "data"
    data.mkdir()
    for name in ("test.posts.ndjson", "test.labels.ndjson"):
        (data / name).write_bytes((data_dir / name).read_bytes())
    with open(data / "test.labels.ndjson", "a") as fh:
        fh.write(json.dumps({"user_id": "ghost", "label": CONTROL}) + "\n")
    rc = run_cli(["evaluate", "--checkpoint", str(ckpt_dir / "checkpoint.json"),
                  "--data", str(data), "--split", "test", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {data / 'test.labels.ndjson'}: user 'ghost' has a label but no posts "
        f"in {data / 'test.posts.ndjson'}\n")
    assert not (tmp_path / "out" / "eval.test.json").exists()


def test_evaluate_missing_run_description(planted_run, tmp_path, capsys):
    ckpt_dir, data_dir = planted_run
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "checkpoint.json").write_bytes(
        (ckpt_dir / "checkpoint.json").read_bytes())
    rc = run_cli(["evaluate", "--checkpoint", str(bare / "checkpoint.json"),
                  "--data", str(data_dir), "--split", "test",
                  "--out", str(tmp_path)])
    assert rc == 1
    assert "run description" in capsys.readouterr().err


@pytest.mark.parametrize("fault, message", [
    ("missing_field", "checkpoint has no 'seed' field"),
    ("short_data", "{short} bytes follow the checkpoint header, the shapes in 'params' "
                   "need {whole}"),
    ("nan_body", "non-finite values in parameter 'conv.w'"),
    ("format_1", "unsupported checkpoint format_version 1"),
    ("format_1_indented", "not a JSON checkpoint header line"),
    ("format_2", "unsupported checkpoint format_version 2"),
    ("emb_shape", "parameter 'emb' has shape (5, 15), its config gives (15, 5)"),
    ("kernel_shape", "parameter 'conv.w' has shape (1, 3, 5), its config gives (5, 3, 1)"),
], ids=["missing_field", "short_data", "nan_body", "format_1", "format_1_indented",
        "format_2", "emb_shape", "kernel_shape"])
def test_predict_malformed_checkpoint_fails_by_name(planted_run, tmp_path, capsys, fault,
                                                    message):
    # Format-3 files lacking a field, lacking four body bytes, with a NaN
    # as the first value of conv.w, or with a parameter's header shape
    # reversed (same byte count), a format-1 document, on one line or
    # indented, and a format-2 file: neither older format is read.
    run_dir, data_dir = planted_run
    for name in ("run.json", "vocab.json"):
        (tmp_path / name).write_bytes((run_dir / name).read_bytes())
    header, body = split_checkpoint((run_dir / "checkpoint.json").read_bytes())
    checkpoint = tmp_path / "checkpoint.json"
    if fault == "missing_field":
        del header["seed"]
    elif fault == "short_data":
        message = message.format(short=len(body) - 4, whole=len(body))
        body = body[:-4]
    elif fault == "nan_body":
        offset = 0
        for name, shape in header["params"]:
            if name == "conv.w":
                break
            offset += 8 * int(np.prod(shape))
        body = body[:offset] + np.array([np.nan], "<f8").tobytes() + body[offset + 8:]
    elif fault == "format_2":
        header["format_version"] = 2
    elif fault.endswith("_shape"):
        name = "emb" if fault == "emb_shape" else "conv.w"
        header["params"] = [[n, shape[::-1] if n == name else shape]
                            for n, shape in header["params"]]
    if fault.startswith("format_1"):
        checkpoint.write_text(json.dumps(FORMAT_1_DOC, indent=2 if "indented" in fault else None))
    else:
        checkpoint.write_bytes(join_checkpoint(header, body))
    rc = run_cli(["predict", "--checkpoint", str(checkpoint),
                  "--input", str(data_dir / "test.posts.ndjson"), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {checkpoint}: {message}"), err


# ---------------------------------------------------------------------------
# Training mechanics over a synthetic corpus driven entirely through the CLI.

@pytest.fixture(scope="module")
def depression_chain(tmp_path_factory):
    """synth -> train, shared by the depression CLI round-trip tests."""
    root = tmp_path_factory.mktemp("dep_chain")
    ini = root / "config.ini"
    ini.write_text(
        "[synth.depression]\n"
        "n_positive = 6\nn_controls_per = 2\nposts_per_user = 4\n"
        "signal_rate = 1.0\nvocab_size = 40\n"
        "[depression]\n"
        "embed_dim = 6\nconv_filters = 4\nmerge_window = 2\nmerge_stride = 2\n"
        "merge_filters = 4\ndense_dims = 6\nn_term = 8\nmin_freq = 1\n"
        "epochs = 2\nlr = 0.01\n")
    data = root / "data"
    assert run_cli(["synth", "--task", "depression", "--config", str(ini),
                    "--out", str(data), "--seed", "7"]) == 0
    run_dir = root / "run1"
    rc = run_cli(["train", "--task", "depression", "--config", str(ini),
                  "--data", str(data), "--out", str(run_dir), "--seed", "5",
                  "--strategy", "earliest", "--n-post", "4"])
    assert rc == 0
    return ini, data, run_dir


def test_synth_writes_manifest(depression_chain):
    _, data, _ = depression_chain
    doc = json.loads((data / "synth.json").read_text())
    assert doc["task"] == "depression"
    assert doc["spec"]["n_positive"] == 6
    assert doc["spec"]["signal_rate"] == 1.0
    for split in ("train", "validation", "test"):
        assert (data / f"{split}.posts.ndjson").exists()
        assert (data / f"{split}.labels.ndjson").exists()


def test_train_writes_run_files(depression_chain, capsys):
    _, _, run_dir = depression_chain
    for name in ("checkpoint.json", "vocab.json", "run.json", "train_log.ndjson"):
        assert (run_dir / name).exists()
    run = json.loads((run_dir / "run.json").read_text())
    assert run["task"] == "depression"
    assert run["seed"] == 5
    assert run["selection"]["strategy"] == "earliest"
    assert run["selection"]["n_post"] == 4
    assert run["epochs"] == 2
    log = [json.loads(line) for line in
           (run_dir / "train_log.ndjson").read_text().splitlines()]
    assert [row["epoch"] for row in log if row["split"] == "train"] == [0, 1]
    assert all("f1" in row for row in log if row["split"] == "validation")


@pytest.mark.parametrize("case", ["depression-fixture", "depression-restored", "risk-restored"])
def test_train_same_seed_is_bit_identical(depression_chain, risk_chain, tmp_path, case):
    # The fixture run keeps its last epoch; the other two restore an earlier
    # best epoch's weights over the last epoch's.
    if case == "depression-fixture":
        ini, data, run_dir = depression_chain
        train = ["--task", "depression", "--config", str(ini), "--data", str(data),
                 "--seed", "5", "--strategy", "earliest", "--n-post", "4"]
        names = ("checkpoint.json", "vocab.json", "train_log.ndjson")
    else:
        if case == "depression-restored":
            ini = tmp_path / "config.ini"
            ini.write_text(depression_chain[0].read_text().replace("lr = 0.01", "lr = 0.1"))
            train = ["--task", "depression", "--data", str(depression_chain[1]), "--epochs", "4",
                     "--strategy", "earliest", "--n-post", "4"]
        else:
            ini = risk_chain[0]
            train = ["--task", "risk", "--data", str(risk_chain[1]), "--epochs", "3",
                     "--variant", "cat_ce"]
        train += ["--config", str(ini), "--seed", "2"]
        names = ("checkpoint.json", "train_log.ndjson")
        run_dir = tmp_path / "run1"
        assert run_cli(["train", *train, "--out", str(run_dir)]) == 0
        run = json.loads((run_dir / "run.json").read_text())
        assert run["best_epoch"] < run["epochs"] - 1
    rerun = tmp_path / "run2"
    rc = run_cli(["train", *train, "--out", str(rerun)])
    assert rc == 0
    for name in names:
        assert sha256(rerun / name) == sha256(run_dir / name)


@pytest.fixture(scope="module")
def learning_depression_run(depression_chain, tmp_path_factory):
    """depression_chain's data trained for 4 epochs at lr 0.1 with seed 2: the
    validation F1 reads 0, 0.5, 1 and 0, so the run keeps epoch 2's weights."""
    root = tmp_path_factory.mktemp("dep_learning")
    ini = root / "config.ini"
    ini.write_text(depression_chain[0].read_text().replace("lr = 0.01", "lr = 0.1"))
    train = ["train", "--task", "depression", "--config", str(ini),
             "--data", str(depression_chain[1]), "--seed", "2",
             "--strategy", "earliest", "--n-post", "4"]
    run_dir = root / "run"
    assert run_cli([*train, "--epochs", "4", "--out", str(run_dir)]) == 0
    return train, run_dir


def test_train_keeps_a_best_epoch_between_the_first_and_the_last(learning_depression_run,
                                                                 depression_chain, tmp_path):
    train, run_dir = learning_depression_run
    run = json.loads((run_dir / "run.json").read_text())
    f1 = [row["f1"] for row in map(json.loads, (run_dir / "train_log.ndjson").read_text()
                                   .splitlines()) if row["split"] == "validation"]
    best = run["best_epoch"]
    assert f1 == [0.0, 0.5, 1.0, 0.0] and 0 < best < run["epochs"] - 1
    assert run["best_metric"] == f1[best] == max(f1) > f1[-1]
    # The checkpoint holds that epoch's weights: those of a run cut after it...
    cut = tmp_path / "cut"
    assert run_cli([*train, "--epochs", str(best + 1), "--out", str(cut)]) == 0
    assert json.loads((cut / "run.json").read_text())["best_epoch"] == best
    assert (split_checkpoint((run_dir / "checkpoint.json").read_bytes())[1]
            == split_checkpoint((cut / "checkpoint.json").read_bytes())[1])
    # ...and, reloaded, they score the validation F1 the run recorded.
    assert run_cli(["evaluate", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--data", str(depression_chain[1]), "--split", "validation",
                    "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "eval.validation.json").read_text())
    assert report["per_class"][1]["f1"] == run["best_metric"]


def test_train_different_seed_differs(depression_chain, tmp_path):
    ini, data, run_dir = depression_chain
    rerun = tmp_path / "run3"
    rc = run_cli(["train", "--task", "depression", "--config", str(ini),
                  "--data", str(data), "--out", str(rerun), "--seed", "6",
                  "--strategy", "earliest", "--n-post", "4"])
    assert rc == 0
    assert sha256(rerun / "checkpoint.json") != sha256(run_dir / "checkpoint.json")


def test_train_depression_is_library_run_on_tokenized_users(depression_chain):
    """The CLI trains on token ids, exactly as the library does."""
    _, data, run_dir = depression_chain
    train, val = (load_users(data / f"{split}.posts.ndjson", data / f"{split}.labels.ndjson")
                  for split in ("train", "validation"))
    vocab = Vocabulary.from_texts((p.text for u in train.values() for p in u.posts),
                                  min_freq=1)
    config = DepressionModelConfig(vocab_size=len(vocab), embed_dim=6, conv_filters=4,
                                   merge_window=2, merge_stride=2, merge_filters=4,
                                   dense_dims=(6,), n_term=8)
    model = DepressionModel(config, seed=derive_seed(5, "init"))
    init_emb = model.params["emb"].copy()
    train_depression(model, tokenize_users(train.values(), vocab),
                     tokenize_users(val.values(), vocab),
                     SelectionConfig("earliest", n_post=4, n_term=8,
                                     seed=derive_seed(5, "selection")),
                     TrainConfig(epochs=2, lr=0.01, seed=derive_seed(5, "train")))
    saved, _, _ = DepressionModel.load(run_dir / "checkpoint.json")
    assert saved.config == config
    for name in model.params.names():
        assert saved.params[name].tobytes() == model.params[name].tobytes(), name
    # an untokenized post encodes to zero and leaves the embedding untouched
    assert not np.array_equal(saved.params["emb"], init_emb)


def test_evaluate_trained_checkpoint(depression_chain, tmp_path, capsys):
    _, data, run_dir = depression_chain
    rc = run_cli(["evaluate", "--checkpoint", str(run_dir / "checkpoint.json"),
                  "--data", str(data), "--split", "validation",
                  "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "accuracy" in out
    assert (tmp_path / "eval.validation.json").exists()


@pytest.fixture(scope="module")
def risk_chain(tmp_path_factory):
    """synth -> train for the risk task, small widths throughout."""
    root = tmp_path_factory.mktemp("risk_chain")
    ini = root / "config.ini"
    ini.write_text(
        "[synth.risk]\n"
        "n_train = 40\nn_test = 12\nvocab_size = 80\n"
        "[risk]\n"
        "encoder_dim = 32\nmax_sentences = 6\nconv_filters = 6\npool_n = 2\n"
        "dense_dims = 8\nval_fraction = 0.25\nepochs = 2\nlr = 0.01\n")
    data = root / "data"
    assert run_cli(["synth", "--task", "risk", "--config", str(ini),
                    "--out", str(data), "--seed", "3"]) == 0
    run_dir = root / "run1"
    rc = run_cli(["train", "--task", "risk", "--variant", "cat_ce",
                  "--config", str(ini), "--data", str(data),
                  "--out", str(run_dir), "--seed", "11"])
    assert rc == 0
    return ini, data, run_dir


def test_risk_run_files(risk_chain):
    _, data, run_dir = risk_chain
    assert (data / "train.threads.ndjson").exists()
    assert (data / "test.threads.ndjson").exists()
    run = json.loads((run_dir / "run.json").read_text())
    assert run["task"] == "risk"
    assert run["variant"] == "cat_ce"
    assert run["encoder"]["dim"] == 32
    assert run["max_sentences"] == 6
    assert run["val_fraction"] == 0.25


def test_risk_train_deterministic(risk_chain, tmp_path):
    ini, data, run_dir = risk_chain
    rerun = tmp_path / "run2"
    rc = run_cli(["train", "--task", "risk", "--variant", "cat_ce",
                  "--config", str(ini), "--data", str(data),
                  "--out", str(rerun), "--seed", "11"])
    assert rc == 0
    assert sha256(rerun / "checkpoint.json") == sha256(run_dir / "checkpoint.json")


def test_train_unknown_balance_mode_fails(risk_chain, tmp_path, capsys):
    ini, data, _ = risk_chain
    bad = tmp_path / "bad.ini"
    # the fixture's config ends in its [risk] section
    bad.write_text(ini.read_text() + "balance = wieghted\n")
    rc = run_cli(["train", "--task", "risk", "--variant", "mse",
                  "--config", str(bad), "--data", str(data),
                  "--out", str(tmp_path / "run"), "--seed", "11"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: [risk] balance: must be 'weighted' or 'sampled', got 'wieghted'\n")
    assert not (tmp_path / "run" / "checkpoint.json").exists()


@pytest.mark.parametrize("task, line", [("depression", "epochs = abc"),
                                        ("risk", "dense_dims = 8,x")],
                         ids=["depression", "risk"])
def test_train_bad_config_value_names_its_option(depression_chain, risk_chain, tmp_path,
                                                 capsys, task, line):
    data = (depression_chain if task == "depression" else risk_chain)[1]
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[{task}]\n{line}\n")
    rc = run_cli(["train", "--task", task, "--config", str(bad), "--data", str(data),
                  "--out", str(tmp_path / "run"), "--seed", "1"])
    assert rc == 1
    option = line.split(" = ")[0]
    assert f"error: [{task}] {option}: invalid literal" in capsys.readouterr().err


def test_train_depression_empty_validation_split_fails_by_name(depression_chain, tmp_path,
                                                              capsys):
    # As build-dataset writes it for fewer than two diagnosed users: no
    # epoch could score a validation F1 above 0.
    data = tmp_path / "data"
    data.mkdir()
    for name in ("train.posts.ndjson", "train.labels.ndjson"):
        (data / name).write_bytes((depression_chain[1] / name).read_bytes())
    for name in ("validation.posts.ndjson", "validation.labels.ndjson"):
        (data / name).write_text("")
    rc = run_cli(["train", "--task", "depression", "--config", str(depression_chain[0]),
                  "--data", str(data), "--out", str(tmp_path / "run"), "--seed", "1"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {data / 'validation.posts.ndjson'}: no users to validate on\n")
    assert not (tmp_path / "run").exists()


def test_train_non_utf8_validation_posts_name_file_and_line(depression_chain, tmp_path,
                                                            capsys):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("train.posts.ndjson", "train.labels.ndjson", "validation.posts.ndjson",
                 "validation.labels.ndjson"):
        (data / name).write_bytes((depression_chain[1] / name).read_bytes())
    posts = data / "validation.posts.ndjson"
    lines = posts.read_bytes().count(b"\n")
    with open(posts, "ab") as fh:
        fh.write(b"\xff\xfe")
    rc = run_cli(["train", "--task", "depression", "--config", str(depression_chain[0]),
                  "--data", str(data), "--out", str(tmp_path / "run"), "--seed", "1"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {posts}:{lines + 1}: bad post row: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("task", ["depression", "risk"])
def test_train_split_without_a_class_names_its_file(depression_chain, tmp_path, capsys, task):
    data = tmp_path / "data"
    if task == "risk":
        # Two threads: stratified_split holds out one of each class, so the
        # training split keeps none.
        ini = tmp_path / "config.ini"
        ini.write_text("[synth.risk]\nn_train = 2\nn_test = 4\nvocab_size = 80\n"
                       "[risk]\nencoder_dim = 32\nepochs = 1\n")
        assert run_cli(["synth", "--task", "risk", "--config", str(ini),
                        "--out", str(data), "--seed", "3"]) == 0
        path, missing = data / "train.threads.ndjson", [0, 1, 2, 3]
    else:
        # The training users without the diagnosed ones.
        ini, source = depression_chain[0], depression_chain[1]
        data.mkdir()
        for name in ("validation.posts.ndjson", "validation.labels.ndjson"):
            (data / name).write_bytes((source / name).read_bytes())
        kept = {row["user_id"] for row in map(json.loads, (source / "train.labels.ndjson")
                                              .read_text().splitlines())
                if row["label"] == CONTROL}
        for name in ("train.posts.ndjson", "train.labels.ndjson"):
            rows = [json.loads(line) for line in (source / name).read_text().splitlines()]
            write_ndjson(data / name, [row for row in rows if row["user_id"] in kept])
        path, missing = data / "train.labels.ndjson", [1]
    capsys.readouterr()
    rc = run_cli(["train", "--task", task, "--config", str(ini), "--data", str(data),
                  "--out", str(tmp_path / "run"), "--seed", "1"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {path}: the training split has no instances of classes {missing}\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text, lineno, message", [
    ("epochs = 1\n", 1, "'epochs = 1' comes before any [section] header"),
    ("[risk]\nepochs = 1\nlr\n", 3, "'lr' is not an 'option = value' line"),
    ("[risk]\nepochs = 1\n\n[risk]\nlr = 0.1\n", 4, "'[risk]' opens [risk] a second time"),
    ("[risk]\nepochs = 1\nlr = 0.1\nepochs = 2\n", 4,
     "'epochs = 2' sets [risk] epochs a second time"),
], ids=["no_section_header", "no_value", "duplicate_section", "duplicate_option"])
def test_train_unreadable_ini_fails_in_one_line_naming_it(risk_chain, tmp_path, capsys,
                                                          text, lineno, message):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    rc = run_cli(["train", "--task", "risk", "--config", str(ini), "--data", str(risk_chain[1]),
                  "--out", str(tmp_path / "run"), "--seed", "1"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {ini}:{lineno}: {message}\n"
    assert not (tmp_path / "run").exists()


def test_ini_percent_is_a_plain_character(risk_chain, tmp_path, capsys):
    # Values are read without interpolation, so the cast reports the value.
    ini = tmp_path / "pct.ini"
    ini.write_text("[risk]\nlr = 1%\n")
    rc = run_cli(["train", "--task", "risk", "--config", str(ini), "--data", str(risk_chain[1]),
                  "--out", str(tmp_path / "run"), "--seed", "1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: [risk] lr: could not convert string to float: '1%'\n"


@pytest.mark.parametrize("text, message", [
    ("[risk]\nepoch = 1\n", "[risk] epoch: unknown option"),
    ("[depression]\nepochs = 1\n[risk]\nepoch = 1\n", "[risk] epoch: unknown option"),
    ("[rsk]\nepochs = 1\n", "{ini}: no command reads section [rsk]; the sections are [dataset], "
                             "[synth.depression], [synth.risk], [depression], [risk]"),
    ("[DEFAULT]\nepochs = 1\n[risk]\nlr = 0.1\n", "{ini}: no command reads section [DEFAULT]; "),
], ids=["unknown_option", "unknown_option_in_another_known_section", "unknown_section",
        "default_section"])
def test_train_unknown_ini_option_or_section_fails_before_training(risk_chain, tmp_path,
                                                                   capsys, text, message):
    ini = tmp_path / "typo.ini"
    ini.write_text(text)
    rc = run_cli(["train", "--task", "risk", "--config", str(ini), "--data", str(risk_chain[1]),
                  "--out", str(tmp_path / "run"), "--seed", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message.format(ini=ini)}") and err.count("\n") == 1, err
    assert not (tmp_path / "run").exists()


def test_one_ini_file_serves_both_train_tasks(depression_chain, risk_chain, tmp_path, capsys):
    # A known section that the command does not read is allowed.
    ini = tmp_path / "train.ini"
    ini.write_text("[depression]\nepochs = 1\n\n[risk]\nepochs = 1\nencoder_dim = 32\n")
    for task, chain in (("depression", depression_chain), ("risk", risk_chain)):
        rc = run_cli(["train", "--task", task, "--config", str(ini), "--data", str(chain[1]),
                      "--out", str(tmp_path / task), "--seed", "1"])
        assert rc == 0, capsys.readouterr().err
        assert json.loads((tmp_path / task / "run.json").read_text())["epochs"] == 1


def test_train_depression_rejects_n_term_below_the_window(depression_chain, tmp_path,
                                                         capsys):
    # Every post would encode to zero: only out.b would ever get a gradient.
    rc = run_cli(["train", "--task", "depression", "--n-term", "2",
                  "--data", str(depression_chain[1]),
                  "--out", str(tmp_path / "run"), "--seed", "1"])
    assert rc == 1
    assert "error: n_term must cover one convolution window" in capsys.readouterr().err
    assert not (tmp_path / "run" / "checkpoint.json").exists()


@pytest.mark.parametrize("task, variant, line, message", [
    ("risk", "cat_ce", "pool_n = 0", "[risk] pool_n: must be at least 1, got 0"),
    ("risk", "cat_ce", "max_sentences = 0",
     "[risk] max_sentences: must cover one convolution window"),
    ("risk", "mse", "dense_dims = 8,0",
     "[risk] dense_dims: entries must be at least 1, got [8, 0]"),
    ("risk", "class_metric", "dense_dims =",
     "[risk] dense_dims: must not be empty for variant 'class_metric'"),
    ("risk", "class_metric_ordinal", "margin = -0.5",
     "[risk] margin: must be at least 0, got -0.5"),
    ("depression", None, "embed_dim = -3", "[depression] embed_dim: must be at least 1, got -3"),
    ("depression", None, "merge_stride = 0",
     "[depression] merge_stride: must be at least 1, got 0"),
    ("depression", None, "conv_filters = 0",
     "[depression] conv_filters: must be at least 1, got 0"),
    ("depression", None, "lr = -1",
     "[depression] lr: must be finite and greater than 0, got -1.0"),
    ("depression", None, "strategy = newest",
     "[depression] strategy: must be one of earliest, latest, random, got 'newest'"),
    ("risk", None, "lr = nan", "[risk] lr: must be finite and greater than 0, got nan"),
    ("risk", None, "variant = cnn",
     "[risk] variant: must be one of cat_ce, mse, class_metric, class_metric_ordinal, got 'cnn'"),
], ids=["pool_n", "max_sentences", "dense_width", "metric_no_dense", "margin", "embed_dim",
        "merge_stride", "conv_filters", "depression_lr", "strategy", "risk_lr", "variant"])
def test_train_out_of_range_model_config_fails_by_field(depression_chain, risk_chain, tmp_path,
                                                        capsys, task, variant, line, message):
    # Each bad value exits 1 with one error line naming its section and field,
    # before any training.
    data = (depression_chain if task == "depression" else risk_chain)[1]
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[{task}]\n{line}\nepochs = 1\n")
    rc = run_cli(["train", "--task", task, *(["--variant", variant] if variant else []),
                  "--config", str(bad), "--data", str(data),
                  "--out", str(tmp_path / "run"), "--seed", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}"), err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert not (tmp_path / "run" / "checkpoint.json").exists()


def test_flag_range_error_names_no_section(risk_chain, tmp_path, capsys):
    # --epochs overrides the file's epochs, so the error names the field alone.
    ini, data, _ = risk_chain
    rc = run_cli(["train", "--task", "risk", "--config", str(ini), "--data", str(data),
                  "--epochs", "-1", "--out", str(tmp_path / "run"), "--seed", "1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: epochs must be at least 0, got -1\n"


def test_predict_late_context_post_names_its_line(risk_chain, tmp_path, capsys):
    _, _, run_dir = risk_chain
    post = {"user_id": "u", "community": "c", "text": "Help?"}
    threads = tmp_path / "threads.ndjson"
    write_ndjson(threads, [{"target": {**post, "post_id": "t1", "timestamp": 5},
                            "context": [{**post, "post_id": "c1", "timestamp": 5}],
                            "label": "green"}])
    rc = run_cli(["predict", "--checkpoint", str(run_dir / "checkpoint.json"),
                  "--input", str(threads), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {threads}:1: bad thread row: "
                          "context post c1 is not earlier than the target"), err


def test_risk_evaluate_all_splits(risk_chain, tmp_path, capsys):
    _, data, run_dir = risk_chain
    for split in ("train", "validation", "test"):
        rc = run_cli(["evaluate", "--checkpoint", str(run_dir / "checkpoint.json"),
                      "--data", str(data), "--split", split,
                      "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / f"eval.{split}.json").read_text())
        assert doc["n_classes"] == 4
    capsys.readouterr()


@pytest.mark.parametrize("task", ["depression", "risk"])
def test_evaluate_empty_split_fails_by_name(planted_run, risk_chain, tmp_path, capsys, task):
    data = tmp_path / "data"
    data.mkdir()
    if task == "depression":
        run_dir = planted_run[0]
        for name in ("test.posts.ndjson", "test.labels.ndjson"):
            (data / name).write_text("")
        message = f"{data / 'test.posts.ndjson'}: no users to evaluate"
    else:
        run_dir = risk_chain[2]
        (data / "test.threads.ndjson").write_text("")
        message = f"{data / 'test.threads.ndjson'}: no test threads to evaluate"
    rc = run_cli(["evaluate", "--checkpoint", str(run_dir / "checkpoint.json"),
                  "--data", str(data), "--split", "test", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_risk_predict_rows(risk_chain, tmp_path, capsys):
    _, data, run_dir = risk_chain
    rc = run_cli(["predict", "--checkpoint", str(run_dir / "checkpoint.json"),
                  "--input", str(data / "test.threads.ndjson"),
                  "--out", str(tmp_path)])
    assert rc == 0
    rows = [json.loads(line) for line in
            (tmp_path / "predictions.ndjson").read_text().splitlines()]
    assert len(rows) == 12
    for row in rows:
        assert set(row) == {"post_id", "predicted", "ordinal", "score"}
        assert row["predicted"] in ("green", "amber", "red", "crisis")
        assert 0 <= row["ordinal"] <= 3
    capsys.readouterr()


def test_risk_predict_blank_target_names_file_line(risk_chain, tmp_path, capsys):
    _, data, run_dir = risk_chain
    lines = (data / "test.threads.ndjson").read_text().splitlines()[:2]
    row = json.loads(lines[1])
    row["target"]["text"] = "  "
    threads = tmp_path / "threads.ndjson"
    threads.write_text(lines[0] + "\n" + json.dumps(row) + "\n")
    rc = run_cli(["predict", "--checkpoint", str(run_dir / "checkpoint.json"),
                  "--input", str(threads), "--out", str(tmp_path)])
    assert rc == 1
    post_id = row["target"]["post_id"]
    assert (f"error: {threads}:2: target post {post_id} has no sentences"
            in capsys.readouterr().err)
    assert not (tmp_path / "predictions.ndjson").exists()


@pytest.mark.parametrize("fault, message", [
    ("unknown_field", "encoder record has unknown fields ['max_ngram']"),
    ("null_record", "encoder record must be an object, got None"),
    ("string_dim", "encoder_dim must be an integer, got '32'"),
    ("narrow_dim", "encoder dim 8 differs from the checkpoint's 32"),
], ids=["unknown_field", "null_record", "string_dim", "narrow_dim"])
def test_risk_predict_bad_encoder_record_fails_by_name(risk_chain, tmp_path, capsys, fault,
                                                       message):
    _, data, run_dir = risk_chain
    run = json.loads((run_dir / "run.json").read_text())
    if fault == "unknown_field":
        run["encoder"]["max_ngram"] = 3
    elif fault == "null_record":
        run["encoder"] = None
    else:
        run["encoder"]["dim"] = "32" if fault == "string_dim" else 8
    (tmp_path / "run.json").write_text(json.dumps(run))
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_bytes((run_dir / "checkpoint.json").read_bytes())
    rc = run_cli(["predict", "--checkpoint", str(checkpoint),
                  "--input", str(data / "test.threads.ndjson"), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'run.json'}: {message}"), err
    assert not (tmp_path / "out" / "predictions.ndjson").exists()


@pytest.mark.parametrize("fault, message", [
    ("missing_field", "selection record has missing fields ['n_post']"),
    ("unknown_field", "selection record has unknown fields ['n_posts']"),
    ("list_record", "selection record must be an object, got ["),
    ("string_n_post", "n_post must be an integer, got '3'"),
], ids=["missing_field", "unknown_field", "list_record", "string_n_post"])
def test_predict_bad_selection_record_fails_by_name(planted_run, tmp_path, capsys, fault,
                                                    message):
    # Each exits 1 with one line in the program's own words; a lacking field
    # takes no default.
    run_dir, data_dir = planted_run
    run = json.loads((run_dir / "run.json").read_text())
    selection = run["selection"]
    if fault == "missing_field":
        del selection["n_post"]
    elif fault == "unknown_field":
        selection["n_posts"] = 3
    elif fault == "list_record":
        run["selection"] = list(selection.values())
    else:
        selection["n_post"] = "3"
    (tmp_path / "run.json").write_text(json.dumps(run))
    for name in ("checkpoint.json", "vocab.json"):
        (tmp_path / name).write_bytes((run_dir / name).read_bytes())
    rc = run_cli(["predict", "--checkpoint", str(tmp_path / "checkpoint.json"),
                  "--input", str(data_dir / "test.posts.ndjson"), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'run.json'}: {message}"), err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fault, message", [
    ("missing_val_fraction", "'val_fraction'"),
    ("string_val_fraction", "'<' not supported between instances of 'float' and 'str'"),
    ("float_val_split_seed", "seed must be an integer, got 7.0"),
    ("string_val_split_seed", "seed must be an integer, got '7'"),
], ids=["missing_val_fraction", "string_val_fraction", "float_val_split_seed",
        "string_val_split_seed"])
def test_risk_evaluate_validation_bad_split_record_fails_by_name(risk_chain, tmp_path, capsys,
                                                                 fault, message):
    # The validation split is rebuilt from run.json's val_fraction and
    # val_split_seed; a bad one fails naming run.json.
    _, data, run_dir = risk_chain
    run = json.loads((run_dir / "run.json").read_text())
    if fault == "missing_val_fraction":
        del run["val_fraction"]
    elif fault == "string_val_fraction":
        run["val_fraction"] = str(run["val_fraction"])
    else:
        run["val_split_seed"] = 7.0 if fault == "float_val_split_seed" else "7"
    (tmp_path / "run.json").write_text(json.dumps(run))
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_bytes((run_dir / "checkpoint.json").read_bytes())
    rc = run_cli(["evaluate", "--checkpoint", str(checkpoint), "--data", str(data),
                  "--split", "validation", "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'run.json'}: {message}"), err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert not (tmp_path / "out" / "eval.validation.json").exists()


RUN_DIR_FAULTS = {
    "run_not_json": ("run.json", lambda run: "{task: depression}"),
    "run_list": ("run.json", lambda run: json.dumps([run])),
    "run_empty": ("run.json", lambda run: "{}"),
    "n_post_string": ("run.json", lambda run: json.dumps(
        {**run, "selection": {**run["selection"], "n_post": "10"}})),
    "unknown_selection_key": ("run.json", lambda run: json.dumps(
        {**run, "selection": {**run["selection"], "bogus": 1}})),
    "float_selection_seed": ("run.json", lambda run: json.dumps(
        {**run, "selection": {**run["selection"], "seed": 7.0}})),
    "bool_selection_seed": ("run.json", lambda run: json.dumps(
        {**run, "selection": {**run["selection"], "seed": True}})),
    # Posts would be cut shorter than the model's n_term (12).
    "n_term_below_model": ("run.json", lambda run: json.dumps(
        {**run, "selection": {**run["selection"], "n_term": 6}})),
    "vocab_not_json": ("vocab.json", lambda run: '{"tokens": ['),
    "vocab_tokens_int": ("vocab.json", lambda run: '{"tokens": 5}'),
    "vocab_token_not_str": ("vocab.json", lambda run: '{"tokens": [1, 2]}'),
    "vocab_tokens_str": ("vocab.json", lambda run: '{"tokens": "w0 w1"}'),
}


@pytest.mark.parametrize("fault", list(RUN_DIR_FAULTS))
def test_predict_malformed_run_file_fails_by_name(planted_run, tmp_path, capsys, fault):
    # Each fault exits 1 with one stderr line that names the file, and no
    # traceback.
    run_dir, data_dir = planted_run
    name, rewrite = RUN_DIR_FAULTS[fault]
    run = json.loads((run_dir / "run.json").read_text())
    for other in ("checkpoint.json", "run.json", "vocab.json"):
        (tmp_path / other).write_bytes((run_dir / other).read_bytes())
    (tmp_path / name).write_text(rewrite(run))
    rc = run_cli(["predict", "--checkpoint", str(tmp_path / "checkpoint.json"),
                  "--input", str(data_dir / "test.posts.ndjson"), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / name}: "), err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert not (tmp_path / "out" / "predictions.ndjson").exists()


@pytest.mark.parametrize("tokens,command", [
    # Every id shifted past the table: the lookup read out of range.
    ([f"x{i}" for i in range(500)] + VOCAB_TOKENS, "predict"),
    # Most words read as unknown, and the run exited 0.
    (VOCAB_TOKENS[:10], "predict"),
    (VOCAB_TOKENS[:10], "evaluate"),
    (VOCAB_TOKENS[:10], "explain"),
], ids=["500_extra_leading_tokens", "10_tokens", "10_tokens_evaluate", "10_tokens_explain"])
def test_vocabulary_that_disagrees_with_the_checkpoint_fails_by_name(planted_run, tmp_path,
                                                                     capsys, tokens, command):
    run_dir, data_dir = planted_run
    for name in ("checkpoint.json", "run.json"):
        (tmp_path / name).write_bytes((run_dir / name).read_bytes())
    (tmp_path / "vocab.json").write_text(json.dumps({"tokens": tokens}))
    inputs = (["--input", str(data_dir / "test.posts.ndjson")] if command == "predict"
              else ["--data", str(data_dir), "--split", "test"])
    rc = run_cli([command, "--checkpoint", str(tmp_path / "checkpoint.json"), *inputs,
                  "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'vocab.json'}: vocabulary has {len(tokens) + 2} ids, the "
        f"checkpoint's vocab_size is {len(VOCAB_TOKENS) + 2}\n")
    assert not (tmp_path / "out").exists()


# A run file of the wrong JSON kind, or without a field: (task, file,
# rewrite of the run description, reason).
RUN_FILE_KIND_FAULTS = {
    "vocab_array": ("depression", "vocab.json", lambda run: json.dumps(VOCAB_TOKENS),
                    'vocabulary must be an object holding a "tokens" array'),
    "vocab_without_tokens": ("depression", "vocab.json",
                             lambda run: json.dumps({"words": VOCAB_TOKENS}),
                             'vocabulary must be an object holding a "tokens" array'),
    "run_without_selection": ("depression", "run.json", lambda run: json.dumps(
        {key: value for key, value in run.items() if key != "selection"}),
        "'selection' field is missing"),
    "run_without_encoder": ("risk", "run.json", lambda run: json.dumps(
        {key: value for key, value in run.items() if key != "encoder"}),
        "'encoder' field is missing"),
}


@pytest.mark.parametrize("fault", list(RUN_FILE_KIND_FAULTS))
def test_run_file_of_the_wrong_kind_fails_in_its_own_words(planted_run, risk_chain, tmp_path,
                                                           capsys, fault):
    task, name, rewrite, message = RUN_FILE_KIND_FAULTS[fault]
    run_dir, inputs = ((planted_run[0], planted_run[1] / "test.posts.ndjson")
                       if task == "depression"
                       else (risk_chain[2], risk_chain[1] / "test.threads.ndjson"))
    for other in ("checkpoint.json", "run.json", "vocab.json"):
        if (run_dir / other).exists():
            (tmp_path / other).write_bytes((run_dir / other).read_bytes())
    (tmp_path / name).write_text(rewrite(json.loads((run_dir / "run.json").read_text())))
    rc = run_cli(["predict", "--checkpoint", str(tmp_path / "checkpoint.json"),
                  "--input", str(inputs), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {tmp_path / name}: {message}\n"
    assert not (tmp_path / "out").exists()


def _thread_row(**changes):
    post = {"user_id": "u", "community": "c", "text": "Help?"}
    return {"target": {**post, "post_id": "t1", "timestamp": 5},
            "context": [{**post, "post_id": "c1", "timestamp": 1}], "label": "green",
            **changes}


@pytest.mark.parametrize("row, message", [
    (["t1", "green"], "row must be an object, got an array"),
    (_thread_row(target="Help?"), "target must be an object, got a string"),
    (_thread_row(context="Earlier."), "context must be an array, got a string"),
    (_thread_row(context=[["c1", "Earlier."]]), "context item must be an object, got an array"),
], ids=["row_array", "target_string", "context_string", "context_item_array"])
def test_predict_thread_of_the_wrong_kind_fails_in_its_own_words(risk_chain, tmp_path, capsys,
                                                                 row, message):
    _, _, run_dir = risk_chain
    threads = tmp_path / "threads.ndjson"
    write_ndjson(threads, [_thread_row(), row])
    rc = run_cli(["predict", "--checkpoint", str(run_dir / "checkpoint.json"),
                  "--input", str(threads), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {threads}:2: bad thread row: {message}\n"
    assert not (tmp_path / "out").exists()


def test_evaluate_label_row_that_is_not_an_object_fails_in_its_own_words(planted_run,
                                                                          tmp_path, capsys):
    _, data_dir = planted_run
    data = tmp_path / "data"
    data.mkdir()
    (data / "test.posts.ndjson").write_bytes((data_dir / "test.posts.ndjson").read_bytes())
    (data / "test.labels.ndjson").write_text('["pos0", "diagnosed"]\n')
    rc = run_cli(["evaluate", "--checkpoint", str(planted_run[0] / "checkpoint.json"),
                  "--data", str(data), "--split", "test", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {data / 'test.labels.ndjson'}:1: bad label row: "
                                       "row must be an object, got an array\n")
    assert not (tmp_path / "out").exists()


def test_predict_failing_on_its_inputs_leaves_no_out_directory(planted_run, tmp_path, capsys):
    run_dir, _ = planted_run
    posts = tmp_path / "posts.ndjson"
    posts.write_text("7\n")
    out = tmp_path / "out" / "nested"
    rc = run_cli(["predict", "--checkpoint", str(run_dir / "checkpoint.json"),
                  "--input", str(posts), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {posts}:1: bad post row: "
                                       "row must be an object, got a number\n")
    assert not (tmp_path / "out").exists()
    # The same command on good input makes the directory with its first file.
    write_ndjson(posts, [{"post_id": "p", "user_id": "u", "community": "c", "timestamp": 0,
                          "text": "w0 sig0 sig1 sig2"}])
    assert run_cli(["predict", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--input", str(posts), "--out", str(out)]) == 0
    assert [path.name for path in out.iterdir()] == ["predictions.ndjson"]
    capsys.readouterr()


@pytest.mark.parametrize("argv, below", [
    (["predict", "--checkpoint", "{file}", "--input", "{file}"], ""),
    (["gradcheck", "--task", "depression"], ""),
    (["synth", "--task", "risk", "--seed", "1"], ""),
    (["gradcheck", "--task", "depression"], "sub/dir"),
], ids=["predict", "gradcheck", "synth", "below_the_file"])
def test_out_that_is_a_file_is_a_usage_error_naming_it(tmp_path, capsys, argv, below):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    with pytest.raises(SystemExit) as exc:
        run_cli([*(arg.format(file=afile) for arg in argv), "--out", str(afile / below)])
    assert exc.value.code == 2
    assert f"error: argument --out: {afile}: not a directory" in capsys.readouterr().err
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("task", ["risk", "depression"])
def test_run_file_of_the_other_task_fails_on_the_checkpoint_kind(planted_run, risk_chain,
                                                                 tmp_path, capsys, task):
    # run.json names one task beside the other task's checkpoint.
    run_dir = planted_run[0] if task == "risk" else risk_chain[2]
    for name in ("checkpoint.json", "run.json", "vocab.json"):
        if (run_dir / name).exists():
            (tmp_path / name).write_bytes((run_dir / name).read_bytes())
    run = json.loads((run_dir / "run.json").read_text())
    (tmp_path / "run.json").write_text(json.dumps({**run, "task": task}))
    inputs = (risk_chain[1] / "test.threads.ndjson" if task == "risk"
              else planted_run[1] / "test.posts.ndjson")
    rc = run_cli(["predict", "--checkpoint", str(tmp_path / "checkpoint.json"),
                  "--input", str(inputs), "--out", str(tmp_path / "out")])
    assert rc == 1
    held = "depression" if task == "risk" else "risk:cat_ce"
    assert capsys.readouterr().err == (f"error: {tmp_path / 'checkpoint.json'}: checkpoint "
                                       f"holds {held!r}, not a {task!r} model\n")


def test_train_rejects_negative_epochs(risk_chain, tmp_path, capsys):
    ini, data, _ = risk_chain
    config = tmp_path / "config.ini"
    config.write_text(ini.read_text().replace("epochs = 2", "epochs = -1"))
    rc = run_cli(["train", "--task", "risk", "--config", str(config), "--data", str(data),
                  "--out", str(tmp_path / "run"), "--seed", "1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: [risk] epochs: must be at least 0, got -1")
    assert not (tmp_path / "run" / "checkpoint.json").exists()


@pytest.mark.parametrize("task", ["risk", "depression"])
def test_predict_checkpoint_with_bad_config_fields_fails(planted_run, risk_chain, tmp_path,
                                                         capsys, task):
    # An unknown field in a risk checkpoint, a missing one in a depression
    # checkpoint: either is an error naming the file and the field.
    run_dir = risk_chain[2] if task == "risk" else planted_run[0]
    for name in ("run.json", "vocab.json"):
        if (run_dir / name).exists():
            (tmp_path / name).write_bytes((run_dir / name).read_bytes())
    header, body = split_checkpoint((run_dir / "checkpoint.json").read_bytes())
    if task == "risk":
        header["config"]["bogus"] = 1
    else:
        del header["config"]["n_term"]
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_bytes(join_checkpoint(header, body))
    inputs = (risk_chain[1] / "test.threads.ndjson" if task == "risk"
              else planted_run[1] / "test.posts.ndjson")
    rc = run_cli(["predict", "--checkpoint", str(checkpoint), "--input", str(inputs),
                  "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    field = "unknown fields ['bogus']" if task == "risk" else "missing fields ['n_term']"
    assert err.startswith(f"error: {checkpoint}: checkpoint config has {field}"), err


# ---------------------------------------------------------------------------
# Dataset construction through the CLI.

def raw_corpus(tmp_path, with_controls=True):
    rows = []

    def add(uid, pid, community, ts, text):
        rows.append({"post_id": pid, "user_id": uid, "community": community,
                     "timestamp": ts, "text": text})

    for i in range(4):
        uid = f"d{i:02d}"
        for j in range(3):
            add(uid, f"{uid}-p{j}", ("games", "news")[j % 2], j, "regular chatter")
        add(uid, f"{uid}-diag", "offtopic", 50, "I was diagnosed with depression.")
    if with_controls:
        for i in range(12):
            uid = f"c{i:02d}"
            for j in range(4):
                add(uid, f"{uid}-p{j}", ("games", "news", "sports")[j % 3], j,
                    "regular chatter")
    else:
        # the only other user posts in a mental-health community
        add("x00", "x00-p0", "depression", 0, "regular chatter")

    posts_path = tmp_path / "posts.ndjson"
    write_ndjson(posts_path, rows)
    votes_path = tmp_path / "votes.ndjson"
    write_ndjson(votes_path, [{"post_id": f"d{i:02d}-diag", "votes": [True, True]}
                              for i in range(4)])
    ini = tmp_path / "build.ini"
    ini.write_text("[dataset]\nk = 2\ntolerance = 0.5\nmin_prior_posts = 3\n")
    return posts_path, votes_path, ini


def test_build_dataset_cli(tmp_path, capsys):
    posts_path, votes_path, ini = raw_corpus(tmp_path)
    out = tmp_path / "out"
    rc = run_cli(["build-dataset", "--posts", str(posts_path),
                  "--annotations", str(votes_path), "--config", str(ini),
                  "--out", str(out)])
    assert rc == 0
    assert "matched dataset build report" in capsys.readouterr().out
    for split in ("train", "validation", "test"):
        assert (out / f"{split}.posts.ndjson").exists()
    assert (out / "report.json").exists()


def test_build_dataset_deterministic(tmp_path, capsys):
    posts_path, votes_path, ini = raw_corpus(tmp_path)
    hashes = []
    for name in ("out1", "out2"):
        out = tmp_path / name
        assert run_cli(["build-dataset", "--posts", str(posts_path),
                        "--annotations", str(votes_path), "--config", str(ini),
                        "--out", str(out)]) == 0
        hashes.append([sha256(out / f"{split}.{kind}.ndjson")
                       for split in ("train", "validation", "test")
                       for kind in ("posts", "labels")])
    assert hashes[0] == hashes[1]
    capsys.readouterr()


@pytest.mark.parametrize("line, message", [
    ("k = 0", "[dataset] k: must be at least 1, got 0"),
    ("k = -1", "[dataset] k: must be at least 1, got -1"),
    ("tolerance = -0.5", "[dataset] tolerance: must be finite and at least 0, got -0.5"),
    ("tolerance = nan", "[dataset] tolerance: must be finite and at least 0, got nan"),
    ("min_prior_posts = -1", "[dataset] min_prior_posts: must be at least 0, got -1"),
    ("min_positive_votes = 0", "[dataset] min_positive_votes: must be at least 1, got 0"),
], ids=["k_zero", "k_negative", "tolerance_negative", "tolerance_nan", "min_prior_posts",
        "min_positive_votes"])
def test_build_dataset_out_of_range_config_fails_by_field(tmp_path, capsys, line, message):
    # Each bad value exits 1 with one error line naming its section and field,
    # before any output.
    posts_path, votes_path, _ = raw_corpus(tmp_path)
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[dataset]\n{line}\n")
    out = tmp_path / "out"
    rc = run_cli(["build-dataset", "--posts", str(posts_path), "--annotations", str(votes_path),
                  "--config", str(bad), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}"), err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert not (out / "report.txt").exists()


# One out-of-range or unparsable value for every option of cli.OPTIONS, with
# the reason its error line gives.
AT_LEAST_1 = "must be at least 1, got 0"
OPTION_FAULTS = {
    "dataset": {
        "k": ("0", AT_LEAST_1),
        "tolerance": ("-0.5", "must be finite and at least 0, got -0.5"),
        "min_prior_posts": ("-1", "must be at least 0, got -1"),
        "min_positive_votes": ("many", "invalid literal for int() with base 10: 'many'"),
    },
    "synth.depression": {
        "n_positive": ("0", AT_LEAST_1),
        "n_controls_per": ("0", AT_LEAST_1),
        "posts_per_user": ("0", AT_LEAST_1),
        "signal_rate": ("2", "must be in [0, 1], got 2.0"),
        "vocab_size": ("0", AT_LEAST_1),
    },
    "synth.risk": {
        "n_train": ("-1", "must be at least 1, got -1"),
        "n_test": ("0", AT_LEAST_1),
        "vocab_size": ("0", AT_LEAST_1),
        "signal_per_level": ("0", AT_LEAST_1),
        "drift": ("1.5", "must be in [0, 1], got 1.5"),
    },
    "depression": {
        "embed_dim": ("0", AT_LEAST_1),
        "conv_window": ("0", AT_LEAST_1),
        "conv_filters": ("0", AT_LEAST_1),
        "merge_window": ("0", AT_LEAST_1),
        "merge_stride": ("0", AT_LEAST_1),
        "merge_filters": ("0", AT_LEAST_1),
        "dense_dims": ("6,0", "entries must be at least 1, got [6, 0]"),
        "dropout": ("1", "must be in [0, 1), got 1.0"),
        "n_term": ("2", "must cover one convolution window"),
        "n_post": ("0", AT_LEAST_1),
        "strategy": ("newest", "must be one of earliest, latest, random, got 'newest'"),
        "balance": ("even", "must be 'weighted' or 'sampled', got 'even'"),
        "min_freq": ("-3", "must be at least 1, got -3"),
        "epochs": ("-1", "must be at least 0, got -1"),
        "lr": ("0", "must be finite and greater than 0, got 0.0"),
    },
    "risk": {
        "variant": ("cnn", "must be one of cat_ce, mse, class_metric, class_metric_ordinal, "
                           "got 'cnn'"),
        "encoder_dim": ("0", AT_LEAST_1),
        "max_sentences": ("2", "must cover one convolution window"),
        "val_fraction": ("2", "must be in (0, 1), got 2.0"),
        "epochs": ("1.5", "invalid literal for int() with base 10: '1.5'"),
        "lr": ("nan", "must be finite and greater than 0, got nan"),
        "conv_filters": ("0", AT_LEAST_1),
        "pool_n": ("0", AT_LEAST_1),
        "dropout": ("-0.1", "must be in [0, 1), got -0.1"),
        "margin": ("nan", "must be at least 0, got nan"),
        "balance": ("even", "must be 'weighted' or 'sampled', got 'even'"),
        "dense_dims": ("8,x", "invalid literal for int() with base 10: 'x'"),
    },
}


@pytest.mark.parametrize("section, option",
                         [(section, option) for section in OPTIONS for option in OPTIONS[section]],
                         ids=[f"{section}.{option}" for section in OPTIONS
                              for option in OPTIONS[section]])
def test_every_ini_option_fails_by_section_and_option(depression_chain, risk_chain, tmp_path,
                                                      capsys, section, option):
    # Cases come from cli.OPTIONS, so an option without a fault here fails:
    # none can land without a range rule. Each bad value exits 1 with one
    # error line naming its section and option, and leaves no --out directory.
    value, reason = OPTION_FAULTS[section][option]
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{option} = {value}\n")
    out = tmp_path / "out"
    if section == "dataset":
        posts_path = raw_corpus(tmp_path)[0]
        argv = ["build-dataset", "--posts", str(posts_path)]
    elif section.startswith("synth."):
        argv = ["synth", "--task", section.partition(".")[2], "--seed", "1"]
    else:
        data = (depression_chain if section == "depression" else risk_chain)[1]
        argv = ["train", "--task", section, "--data", str(data), "--seed", "1"]
    rc = run_cli([*argv, "--config", str(ini), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: [{section}] {option}: {reason}\n"
    assert not out.exists()


def test_build_dataset_empty_pool_fails(tmp_path, capsys):
    posts_path, votes_path, ini = raw_corpus(tmp_path, with_controls=False)
    rc = run_cli(["build-dataset", "--posts", str(posts_path),
                  "--annotations", str(votes_path), "--config", str(ini),
                  "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "control pool is empty" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Gradient checking through the CLI.

def test_gradcheck_cli(tmp_path, capsys):
    rc = run_cli(["gradcheck", "--task", "all", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert "all parameters pass" in out
    doc = json.loads((tmp_path / "gradcheck.json").read_text())
    assert doc["pass"] is True
    assert doc["threshold"] == 1e-4
    assert any(name.startswith("depression/") for name in doc["results"])
    for variant in ("cat_ce", "mse", "class_metric", "class_metric_ordinal"):
        assert any(name.startswith(f"risk:{variant}/") for name in doc["results"])
    assert all(err < 1e-4 for err in doc["results"].values())


# ---------------------------------------------------------------------------
# Exit codes: usage errors are 2, runtime errors are 1.

def test_usage_error_missing_seed(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["train", "--task", "depression", "--data", str(tmp_path),
                 "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["build-dataset", "--posts", "{file}"], "--seed"),
    (["evaluate", "--checkpoint", "{file}", "--data", "{dir}", "--split", "test"], "--config"),
    (["evaluate", "--checkpoint", "{file}", "--data", "{dir}", "--split", "test"], "--seed"),
    (["predict", "--checkpoint", "{file}", "--input", "{file}"], "--config"),
    (["predict", "--checkpoint", "{file}", "--input", "{file}"], "--seed"),
    (["explain", "--checkpoint", "{file}", "--data", "{dir}", "--split", "test"], "--config"),
    (["explain", "--checkpoint", "{file}", "--data", "{dir}", "--split", "test"], "--seed"),
    (["gradcheck", "--task", "depression"], "--config"),
], ids=["build-dataset-seed", "evaluate-config", "evaluate-seed", "predict-config",
        "predict-seed", "explain-config", "explain-seed", "gradcheck-config"])
def test_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, argv, flag):
    # A typo'd INI file that the strict check would reject, were it read.
    ini = tmp_path / "typo.ini"
    ini.write_text("[rsk]\nepoch = 1\n")
    value = str(ini) if flag == "--config" else "3"
    argv = [arg.format(file=ini, dir=tmp_path) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        run_cli([*argv, flag, value, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_usage_error_unknown_command(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_usage_error_missing_out():
    with pytest.raises(SystemExit) as exc:
        run_cli(["gradcheck"])
    assert exc.value.code == 2


def test_usage_error_nonexistent_config(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["synth", "--task", "depression", "--seed", "1",
                 "--config", str(tmp_path / "missing.ini"),
                 "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_usage_error_nonexistent_data_dir(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["train", "--task", "depression", "--seed", "1",
                 "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_runtime_error_missing_corpus_files(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = run_cli(["train", "--task", "depression", "--seed", "1",
                  "--data", str(empty), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("task, epochs, best_epoch", [
    ("depression", 3, 2), ("depression", 4, 2), ("risk", 2, 1), ("risk", 3, 1),
], ids=["depression-last-best", "depression-earlier-best", "risk-last-best",
        "risk-earlier-best"])
def test_reloaded_checkpoint_scores_the_best_validation_metric(depression_chain, risk_chain,
                                                               tmp_path, capsys, task, epochs,
                                                               best_epoch):
    # checkpoint.json, read back from disk and scored on the validation
    # split, gives run.json's best_metric: when the last epoch is best (its
    # weights are kept as they are) and when an earlier one is (its copy is
    # restored over the last epoch's weights, which score differently).
    if task == "depression":
        data = depression_chain[1]
        config = tmp_path / "config.ini"
        config.write_text(depression_chain[0].read_text().replace("lr = 0.01", "lr = 0.1"))
        extra = ["--strategy", "earliest", "--n-post", "4"]
    else:
        config, data = risk_chain[0], risk_chain[1]
        extra = ["--variant", "cat_ce"]
    run_dir = tmp_path / "run"
    assert run_cli(["train", "--task", task, "--config", str(config), "--data", str(data),
                    "--out", str(run_dir), "--seed", "2", "--epochs", str(epochs),
                    *extra]) == 0
    run = json.loads((run_dir / "run.json").read_text())
    log = [json.loads(line) for line in (run_dir / "train_log.ndjson").read_text().splitlines()]
    scores = [row["f1" if task == "depression" else "non_green_f1"]
              for row in log if row["split"] == "validation"]
    assert len(scores) == epochs and run["best_epoch"] == best_epoch
    assert (scores[-1] == run["best_metric"]) == (best_epoch == epochs - 1)
    assert run_cli(["evaluate", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--data", str(data), "--split", "validation", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "eval.validation.json").read_text())
    metric = (report["per_class"][1]["f1"] if task == "depression"
              else report["groupings"]["non_green"]["f1"])
    assert metric == run["best_metric"]
    capsys.readouterr()


def test_readme_configuration_block_documents_every_option():
    # README's INI block lists each section's options as `name = value` lines,
    # and [risk]'s architecture overrides in a comment; together they are
    # exactly cli.OPTIONS, and each documented value parses with its cast.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Configuration", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    cp.read_string(block)
    assert sorted(cp.sections()) == sorted(OPTIONS)
    overrides = set(re.findall(r"\w+", re.search(r"overrides:(.*?)—", block, re.S).group(1)))
    for section in cp.sections():
        documented = set(cp[section]) | (overrides if section == "risk" else set())
        assert documented == set(OPTIONS[section]), section
        for name, value in cp[section].items():
            OPTIONS[section][name](value)


@pytest.mark.parametrize("section, spec", [("synth.depression", SynthDetectionSpec),
                                           ("synth.risk", SynthRiskSpec)])
def test_synth_spec_fields_are_its_options_and_the_seed(section, spec):
    # A spec field that no option sets would be a knob no caller turns.
    assert {f.name for f in fields(spec)} == set(OPTIONS[section]) | {"seed"}
