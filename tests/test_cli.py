import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from triagekit.cli import main
from triagekit.corpus import CONTROL, DIAGNOSED, Vocabulary, load_users
from triagekit.models import DepressionModel, DepressionModelConfig
from triagekit.nn import ParamStore
from triagekit.traineval import (
    SelectionConfig,
    TrainConfig,
    derive_seed,
    tokenize_users,
    train_depression,
)


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


def test_predict_empty_input(planted_run, tmp_path):
    ckpt_dir, _ = planted_run
    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    rc = run_cli(["predict", "--checkpoint", str(ckpt_dir / "checkpoint.json"),
                  "--input", str(empty), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "predictions.ndjson").read_text() == ""


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


def test_train_same_seed_is_bit_identical(depression_chain, tmp_path):
    ini, data, run_dir = depression_chain
    rerun = tmp_path / "run2"
    rc = run_cli(["train", "--task", "depression", "--config", str(ini),
                  "--data", str(data), "--out", str(rerun), "--seed", "5",
                  "--strategy", "earliest", "--n-post", "4"])
    assert rc == 0
    for name in ("checkpoint.json", "vocab.json", "train_log.ndjson"):
        assert sha256(rerun / name) == sha256(run_dir / name)


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
    init_emb = model.params["emb"].astype(np.float32)
    train_depression(model, tokenize_users(train.values(), vocab),
                     tokenize_users(val.values(), vocab),
                     SelectionConfig("earliest", n_post=4, n_term=8,
                                     seed=derive_seed(5, "selection")),
                     TrainConfig(epochs=2, lr=0.01, seed=derive_seed(5, "train")))
    saved, _, _ = DepressionModel.load(run_dir / "checkpoint.json")
    assert saved.config == config
    for name in model.params.names():
        assert (saved.params[name].astype(np.float32).tobytes()
                == model.params[name].astype(np.float32).tobytes()), name
    # an untokenized post encodes to zero and leaves the embedding untouched
    assert not np.array_equal(saved.params["emb"].astype(np.float32), init_emb)


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
    assert "unknown balance mode 'wieghted'" in capsys.readouterr().err
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


def test_train_depression_rejects_n_term_below_the_window(depression_chain, tmp_path,
                                                         capsys):
    # Every post would encode to zero: only out.b would ever get a gradient.
    rc = run_cli(["train", "--task", "depression", "--n-term", "2",
                  "--data", str(depression_chain[1]),
                  "--out", str(tmp_path / "run"), "--seed", "1"])
    assert rc == 1
    assert "error: n_term must cover one convolution window" in capsys.readouterr().err
    assert not (tmp_path / "run" / "checkpoint.json").exists()


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
