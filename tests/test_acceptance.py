"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. The experiment-backed criteria (6 and 7) train real models on the
synthetic corpora and dominate the runtime.
"""

import hashlib
import json
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np

from triagekit.cli import main as cli_main
from triagekit.corpus import (
    DIAGNOSED,
    HashedSentenceEncoder,
    Vocabulary,
    load_users,
    read_threads,
)
from triagekit.databuild import (
    MatchCandidate,
    SubredditDistribution,
    greedy_match,
    hellinger,
)
from triagekit.models import (
    DepressionModel,
    DepressionModelConfig,
    RiskModel,
    RiskModelConfig,
    class_metric_loss,
    class_metric_ordinal_loss,
    metric_classify,
    mse_classify,
)
from triagekit.nn import (
    ParamStore,
    _usable_cores,
    add,
    add_const,
    concat,
    constant,
    conv1d,
    cross_entropy,
    dense,
    embedding_lookup,
    euclidean_distance,
    finite_difference_check,
    flatten,
    hinge,
    max_pool,
    mean_rows,
    pick,
    relu,
    scale,
    squared_error,
    stack_rows,
    sub,
)
from triagekit.traineval import (
    SelectionConfig,
    SynthDetectionSpec,
    SynthRiskSpec,
    TrainConfig,
    binary_metrics,
    derive_seed,
    mcnemar,
    select_posts,
    stratified_split,
    synth_detection_corpus,
    synth_risk_corpus,
    thread_matrices,
    tokenize_users,
    train_depression,
    train_risk,
    triage_report,
)

THRESHOLD = 1e-4


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


def perturb(params, rng):
    for name in params.names():
        arr = params[name]
        arr += rng.normal(0.0, 0.1, size=arr.shape)


# ---------------------------------------------------------------------------
# 1. Gradient suite: >= 100 random configurations, every layer and both
#    metric losses, max relative error < 1e-4, under 60 s.

def depression_case(rng):
    vocab = int(rng.integers(6, 14))
    config = DepressionModelConfig(
        vocab_size=vocab,
        embed_dim=int(rng.integers(2, 5)),
        conv_window=int(rng.integers(2, 4)),
        conv_filters=int(rng.integers(2, 5)),
        merge_window=int(rng.integers(2, 4)),
        merge_stride=int(rng.integers(1, 4)),
        merge_filters=int(rng.integers(2, 4)),
        dense_dims=tuple(int(rng.integers(3, 6))
                         for _ in range(int(rng.integers(1, 3)))),
        dropout=float(rng.choice([0.0, 0.25, 0.5])),
        n_term=8)
    model = DepressionModel(config, seed=int(rng.integers(2 ** 31)))
    perturb(model.params, rng)
    # at least one post long enough to convolve, some short ones to pad
    posts = [tuple(int(t) for t in rng.integers(0, vocab, size=int(rng.integers(config.conv_window, 8))))
             for _ in range(int(rng.integers(1, 4)))]
    label = int(rng.integers(0, 2))
    mask_seed = int(rng.integers(2 ** 31))

    def loss_fn(nodes):
        return model.loss(posts, label, nodes, train=True,
                          rng=np.random.default_rng(mask_seed))

    return loss_fn, model.params


def risk_case(rng, variant):
    config = RiskModelConfig(
        variant=variant,
        sentence_dim=int(rng.integers(3, 6)),
        conv_filters=int(rng.integers(2, 5)),
        pool_n=int(rng.integers(1, 3)),
        dense_dims=(int(rng.integers(3, 6)),),
        dropout=float(rng.choice([0.0, 0.3])),
        max_sentences=int(rng.integers(3, 6)))
    model = RiskModel(config, seed=int(rng.integers(2 ** 31)))
    perturb(model.params, rng)
    target = rng.normal(0.0, 1.0, size=(config.max_sentences, config.sentence_dim))
    context = rng.normal(0.0, 1.0, size=(config.max_sentences, config.sentence_dim))
    label = int(rng.integers(0, 4))
    negative = int(rng.choice([c for c in range(4) if c != label]))
    mask_seed = int(rng.integers(2 ** 31))

    def loss_fn(nodes):
        return model.loss(target, context, label, nodes, train=True,
                          rng=np.random.default_rng(mask_seed),
                          negative=negative)

    return loss_fn, model.params


def chain_case(rng):
    """A synthetic graph exercising the ops the model losses do not reach."""
    vocab, emb, filters = 9, 3, 3
    rows = int(rng.integers(4, 7))
    ids = [int(t) for t in rng.integers(0, vocab, size=rows)]
    stride = int(rng.integers(1, 3))
    pool_n = int(rng.integers(1, 3))
    windows = (rows - 2) // stride + 1
    blocks = -(-windows // pool_n)
    p = ParamStore()
    p.add("emb", rng.normal(0.0, 0.5, size=(vocab, emb)))
    p.add("cw", rng.normal(0.0, 0.5, size=(emb, 2, filters)))
    p.add("cb", rng.normal(0.0, 0.5, size=filters))
    p.add("dw", rng.normal(0.0, 0.5, size=(3, 2 * blocks * filters)))
    p.add("db", rng.normal(0.0, 0.5, size=3))
    p.add("classes", rng.normal(0.0, 0.5, size=(4, 3)))
    target = float(rng.normal())
    pos, neg = 1, int(rng.choice([0, 2, 3]))
    alpha = float(abs(rng.normal()))
    pick_idx = int(rng.integers(0, 3))
    ce_idx = int(rng.integers(0, 3))

    def loss_fn(nodes):
        seq = embedding_lookup(nodes("emb"), ids)
        feat = relu(conv1d(seq, nodes("cw"), nodes("cb"), stride=stride))
        pooled = flatten(max_pool(feat, pool_n))
        pooled = scale(add(pooled, pooled), 0.5)
        avg = mean_rows(stack_rows([pooled, pooled]))
        both = concat(pooled, sub(avg, pooled))
        h = dense(both, nodes("dw"), nodes("db"))
        metric = class_metric_ordinal_loss(h, pos, neg, nodes("classes"), alpha)
        plain = class_metric_loss(h, pos, neg, nodes("classes"), alpha)
        spread = hinge(add_const(euclidean_distance(h, constant(np.zeros(3))), -1.0))
        picked = squared_error(pick(h, pick_idx), target)
        ce = cross_entropy(h, ce_idx)
        total = add(add(add(metric, plain), add(spread, picked)), ce)
        return scale(total, 0.25)

    return loss_fn, p


def test_criterion_1_gradient_suite():
    rng = np.random.default_rng(derive_seed(2024, "acceptance:grad"))
    start = time.monotonic()
    n_configs, worst = 0, 0.0
    variants = ("cat_ce", "mse", "class_metric", "class_metric_ordinal")
    for i in range(34):
        loss_fn, params = depression_case(rng)
        worst = max(worst, max(finite_difference_check(loss_fn, params).values()))
        n_configs += 1
    for i in range(36):
        loss_fn, params = risk_case(rng, variants[i % 4])
        worst = max(worst, max(finite_difference_check(loss_fn, params).values()))
        n_configs += 1
    for i in range(30):
        loss_fn, params = chain_case(rng)
        worst = max(worst, max(finite_difference_check(loss_fn, params).values()))
        n_configs += 1
    elapsed = time.monotonic() - start
    report(1, n_configs >= 100 and worst < THRESHOLD and elapsed < 60.0,
           f"{n_configs} configurations, max rel err {worst:.2e} "
           f"(< {THRESHOLD:g}), {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 2. Hellinger identities and pinned value.

def rand_dist(rng, names=("a", "b", "c", "d", "e", "f", "g", "h")):
    # continuous weights: distinct users get distinct distances almost surely,
    # so both Hellinger formulations rank controls identically
    n = int(rng.integers(1, len(names) + 1))
    chosen = rng.choice(len(names), size=n, replace=False)
    weights = 0.05 + rng.random(size=n)
    total = float(weights.sum())
    return SubredditDistribution({names[c]: float(w) / total
                                  for c, w in zip(chosen, weights)})


def test_criterion_2_hellinger_oracle():
    rng = np.random.default_rng(derive_seed(2024, "acceptance:hellinger"))
    worst_self, worst_sym = 0.0, 0.0
    for _ in range(1000):
        p, q = rand_dist(rng), rand_dist(rng)
        worst_self = max(worst_self, abs(hellinger(p, p)))
        worst_sym = max(worst_sym, abs(hellinger(p, q) - hellinger(q, p)))
    disjoint = abs(hellinger(SubredditDistribution({"a": 1.0}),
                             SubredditDistribution({"b": 1.0})) - 1.0)
    pinned = hellinger(SubredditDistribution({"a": 1.0}),
                       SubredditDistribution({"a": 0.5, "b": 0.5}))
    ok = (worst_self <= 1e-12 and worst_sym <= 1e-12 and disjoint <= 1e-12
          and abs(pinned - 0.541196) <= 1e-6)
    report(2, ok,
           f"self {worst_self:.1e}, symmetry {worst_sym:.1e}, "
           f"disjoint err {disjoint:.1e} (1000 pairs); "
           f"H(point, half-half) = {pinned:.6f} (0.541196 ± 1e-6)")


# ---------------------------------------------------------------------------
# 3. Greedy matching vs an exhaustive oracle.

def oracle_hellinger(p, q):
    # independent formulation: H^2 = 1 - Bhattacharyya coefficient
    keys = sorted(p.probs.keys() | q.probs.keys(), reverse=True)
    bc = sum(math.sqrt(p.probs.get(c, 0.0) * q.probs.get(c, 0.0)) for c in keys)
    return math.sqrt(max(0.0, 1.0 - min(1.0, bc)))


def oracle_match(diagnosed, pool, k, tol):
    available = list(pool)
    result = {}
    for diag in diagnosed:
        eligible = [c for c in available
                    if (1 - tol) * diag.n_posts <= c.n_posts <= (1 + tol) * diag.n_posts]
        chosen = []
        while eligible and len(chosen) < k:
            best = None
            for c in eligible:
                key = (oracle_hellinger(diag.distribution, c.distribution), c.user_id)
                if best is None or key < best[0]:
                    best = (key, c)
            chosen.append(best[1].user_id)
            eligible.remove(best[1])
            available.remove(best[1])
        result[diag.user_id] = chosen
    return result


def overlap_dist(rng, names=("a", "b", "c", "d", "e", "f", "g", "h")):
    """Random distribution always supporting names[0].

    Shared support keeps every pairwise distance strictly inside (0, 1), where
    the two Hellinger formulations agree on ordering; the exact d = 1 disjoint
    boundary (where equal-by-math values can differ in the last ulp between
    formulations) is the Hellinger criterion's territory, not matching's.
    """
    n = int(rng.integers(1, len(names)))
    rest = 1 + rng.choice(len(names) - 1, size=n, replace=False)
    chosen = [0] + [int(i) for i in rest]
    weights = 0.05 + rng.random(size=len(chosen))
    total = float(weights.sum())
    return SubredditDistribution({names[c]: float(w) / total
                                  for c, w in zip(chosen, weights)})


def test_criterion_3_matching_oracle():
    rng = np.random.default_rng(derive_seed(2024, "acceptance:matching"))
    mismatches = 0
    for _ in range(50):
        n_diag = int(rng.integers(1, 11))
        n_pool = int(rng.integers(5, 61))
        k = int(rng.integers(1, 4))
        diagnosed = [MatchCandidate(f"d{i:02d}", int(rng.integers(5, 40)),
                                    overlap_dist(rng)) for i in range(n_diag)]
        pool = [MatchCandidate(f"c{i:03d}", int(rng.integers(5, 40)),
                               overlap_dist(rng)) for i in range(n_pool)]
        res = greedy_match(diagnosed, pool, k=k, tol=0.10)
        expected = oracle_match(diagnosed, pool, k=k, tol=0.10)
        for uid in expected:
            if [c for c, _ in res.matches[uid]] != expected[uid]:
                mismatches += 1
    report(3, mismatches == 0,
           f"50 random instances (≤10 diagnosed, ≤60 controls, k ≤ 3), "
           f"{mismatches} selection mismatches vs the exhaustive oracle")


# ---------------------------------------------------------------------------
# 4. Metric fixtures, exact and toleranced.

def test_criterion_4_metric_fixtures():
    gold = [0, 0, 0, 0, 1, 1, 2, 3]
    pred = [0, 0, 0, 1, 1, 0, 2, 3]
    rep = triage_report(gold, pred)
    g = rep.groupings
    exact = (
        g["non_green"]["f1"] == float(Fraction(5, 6))
        and g["non_green"]["accuracy"] == float(Fraction(3, 4))
        and g["flagged"]["f1"] == float(Fraction(3, 4))
        and g["urgent"]["f1"] == 1.0
        and g["all"]["f1"] == float(Fraction(13, 16))
        and rep.accuracy == float(Fraction(3, 4))
    )
    p, r, f1 = binary_metrics([1, 1, 1, 1, 1, 0, 0, 0, 0],
                              [1, 1, 1, 0, 0, 1, 0, 0, 0])
    binary_ok = (abs(p - 0.75) <= 1e-4 and abs(r - 0.60) <= 1e-4
                 and abs(f1 - 0.6667) <= 1e-4)
    report(4, exact and binary_ok,
           f"grouped fixture exact (non-green {g['non_green']['f1']:.4f}, "
           f"flagged {g['flagged']['f1']:.4f}, urgent {g['urgent']['f1']:.4f}, "
           f"all {g['all']['f1']:.4f}); binary {p:.2f}/{r:.2f}/{f1:.4f}")


# ---------------------------------------------------------------------------
# 5. McNemar pinned statistic.

def test_criterion_5_mcnemar():
    # b = 10 (A right, B wrong), c = 2 (A wrong, B right), rest concordant
    n = 20
    gold = [0] * n
    pred_a = [0] * n
    pred_b = [0] * n
    for i in range(10):
        pred_b[i] = 1
    for i in range(10, 12):
        pred_a[i] = 1
    stat, p = mcnemar(pred_a, pred_b, gold)
    ok = abs(stat - 4.0833) <= 1e-3 and abs(p - 0.0433) <= 1e-3
    report(5, ok, f"b=10, c=2 → statistic {stat:.4f} (4.0833 ± 1e-3), "
                  f"p {p:.4f} (0.0433 ± 1e-3)")


# ---------------------------------------------------------------------------
# 6. Synthetic depression experiment at the published configuration.

def run_depression_experiment(tmp_path, signal_rate):
    out = tmp_path / f"corpus_{signal_rate}"
    spec = SynthDetectionSpec(n_positive=200, n_controls_per=3,
                              posts_per_user=50, signal_rate=signal_rate,
                              vocab_size=2000, seed=0)
    synth_detection_corpus(spec, out)
    train_users = load_users(out / "train.posts.ndjson", out / "train.labels.ndjson")
    val_users = load_users(out / "validation.posts.ndjson",
                           out / "validation.labels.ndjson")
    test_users = load_users(out / "test.posts.ndjson", out / "test.labels.ndjson")
    vocab = Vocabulary.from_texts(
        (p.text for u in train_users.values() for p in u.posts), min_freq=5)
    tok_train = tokenize_users(train_users.values(), vocab)
    tok_val = tokenize_users(val_users.values(), vocab)
    tok_test = tokenize_users(test_users.values(), vocab)
    selection = SelectionConfig("random", n_post=1500, n_term=100,
                                seed=derive_seed(0, "selection"))
    model = DepressionModel(DepressionModelConfig(vocab_size=len(vocab)),
                            seed=derive_seed(0, "init"))
    train_depression(model, tok_train, tok_val, selection,
                     TrainConfig(epochs=20, lr=3e-3, seed=derive_seed(0, "train")))
    gold = [int(u.label == DIAGNOSED) for u in tok_test]
    pred = [int(np.argmax(model.classify_user(select_posts(u, selection))))
            for u in tok_test]
    _, _, f1 = binary_metrics(gold, pred)
    positive_prior = sum(gold) / len(gold)
    return f1, positive_prior


def test_criterion_6_synthetic_depression(tmp_path):
    start = time.monotonic()
    f1, _ = run_depression_experiment(tmp_path, signal_rate=0.05)
    elapsed = time.monotonic() - start
    null_f1, prior = run_depression_experiment(tmp_path, signal_rate=0.0)
    baseline = 2 * prior / (1 + prior)  # always-positive classifier
    ok = f1 >= 0.90 and elapsed < 300.0 and abs(null_f1 - baseline) <= 0.15
    report(6, ok,
           f"held-out F1 {f1:.3f} (≥ 0.90) in {elapsed:.0f}s (< 300s); "
           f"null-signal F1 {null_f1:.3f} within ±0.15 of class-prior "
           f"baseline {baseline:.3f}")


# ---------------------------------------------------------------------------
# 7. Synthetic risk experiment: on the 800/200 ordinal thread corpus every
#    output variant reaches all-class macro-F1 >= 0.80 on the test split, and
#    the ordinal margin's mean ordinal error over five seeds does not exceed
#    the plain margin's.

RISK_ENCODER_DIM = 64
RISK_MAX_SENTENCES = 8


def run_risk_experiment(train_threads, test_threads, variant, seed):
    encoder = HashedSentenceEncoder(dim=RISK_ENCODER_DIM,
                                    seed=derive_seed(seed, "encoder"))
    labels = [int(t.label) for t in train_threads]
    kept, held = stratified_split(labels, 0.15, derive_seed(seed, "val-split"))
    train = thread_matrices([train_threads[i] for i in kept], encoder,
                            RISK_MAX_SENTENCES)
    val = thread_matrices([train_threads[i] for i in held], encoder,
                          RISK_MAX_SENTENCES)
    test = thread_matrices(test_threads, encoder, RISK_MAX_SENTENCES)
    model = RiskModel(
        RiskModelConfig.for_variant(variant, sentence_dim=RISK_ENCODER_DIM,
                                    max_sentences=RISK_MAX_SENTENCES),
        seed=derive_seed(seed, "init"))
    train_risk(model, train, val,
               TrainConfig(epochs=12, lr=1e-3, seed=derive_seed(seed, "train")))
    gold = [label for _, _, label in test]
    pred = [int(model.classify(target, context)) for target, context, _ in test]
    macro_f1 = triage_report(gold, pred).groupings["all"]["f1"]
    ordinal_error = float(np.mean(np.abs(np.asarray(gold) - np.asarray(pred))))
    return macro_f1, ordinal_error


def run_risk_experiment_on(corpus, variant, seed):
    """`run_risk_experiment` on the corpus directory's splits, in a worker."""
    return run_risk_experiment(read_threads(corpus / "train.threads.ndjson"),
                               read_threads(corpus / "test.threads.ndjson"), variant, seed)


RISK_RUNS = ([(variant, 0) for variant in ("cat_ce", "mse", "class_metric",
                                           "class_metric_ordinal")]
             + [(variant, seed) for seed in range(1, 5)
                for variant in ("class_metric", "class_metric_ordinal")])


def run_risk_experiments(corpus):
    """(variant, seed) -> (macro-F1, ordinal error) of every `RISK_RUNS` run.
    The runs are independent, so they share the usable cores, one process
    each, started afresh (spawn) and all ended when the block exits."""
    with ProcessPoolExecutor(_usable_cores(),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = {run: pool.submit(run_risk_experiment_on, corpus, *run) for run in RISK_RUNS}
        return {run: future.result() for run, future in futures.items()}


def test_criterion_7_synthetic_risk(tmp_path):
    corpus = tmp_path / "risk"
    synth_risk_corpus(SynthRiskSpec(n_train=800, n_test=200, seed=0), corpus)
    results = run_risk_experiments(corpus)

    scores = {variant: results[variant, 0][0]
              for variant in ("cat_ce", "mse", "class_metric", "class_metric_ordinal")}
    plain_errors = [results["class_metric", seed][1] for seed in range(5)]
    ordinal_errors = [results["class_metric_ordinal", seed][1] for seed in range(5)]

    mean_plain = float(np.mean(plain_errors))
    mean_ordinal = float(np.mean(ordinal_errors))
    ok = (all(f1 >= 0.80 for f1 in scores.values())
          and mean_ordinal <= mean_plain)
    detail = ", ".join(f"{variant} {f1:.3f}"
                       for variant, f1 in scores.items())
    report(7, ok,
           f"macro-F1 ≥ 0.80 for all variants ({detail}); "
           f"mean ordinal error over 5 seeds {mean_ordinal:.4f} "
           f"≤ plain {mean_plain:.4f}")


# ---------------------------------------------------------------------------
# 8. Loss properties.

def test_criterion_8_loss_properties():
    rng = np.random.default_rng(derive_seed(2024, "acceptance:losses"))
    violations = 0
    for _ in range(10_000):
        dim = int(rng.integers(2, 6))
        x = constant(rng.normal(0.0, 2.0, size=dim))
        classes = constant(rng.normal(0.0, 2.0, size=(4, dim)))
        p = int(rng.integers(0, 4))
        n = int(rng.choice([c for c in range(4) if c != p]))
        alpha = float(abs(rng.normal(0.0, 1.0)))
        plain = class_metric_loss(x, p, n, classes, alpha).value
        ordinal = class_metric_ordinal_loss(x, p, n, classes, alpha).value
        if ordinal < plain - 1e-12:
            violations += 1
    range_ok = all(int(mse_classify(float(y))) in (0, 1, 2, 3)
                   for y in rng.normal(0.0, 10.0, size=10_000))
    range_ok = range_ok and int(mse_classify(-1e9)) == 0 \
        and int(mse_classify(1e9)) == 3 and int(mse_classify(0.5)) == 1 \
        and int(mse_classify(2.49)) == 2
    argmin_mismatch = 0
    for _ in range(10_000):
        dim = int(rng.integers(2, 5))
        x = rng.normal(0.0, 2.0, size=dim)
        classes = rng.normal(0.0, 2.0, size=(4, dim))
        got = int(metric_classify(x, classes))
        best, best_d = 0, math.inf
        for c in range(4):
            d = math.sqrt(sum((classes[c, j] - x[j]) ** 2 for j in range(dim)))
            if d < best_d:
                best, best_d = c, d
        if got != best:
            argmin_mismatch += 1
    ok = violations == 0 and range_ok and argmin_mismatch == 0
    report(8, ok,
           f"ordinal ≥ plain on 10⁴ tuples ({violations} violations); "
           f"mse_classify range ∈ {{0..3}} incl. extremes ({range_ok}); "
           f"metric_classify vs brute force on 10⁴ ({argmin_mismatch} mismatches)")


# ---------------------------------------------------------------------------
# 9. End-to-end determinism through the CLI.

def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_criterion_9_determinism(tmp_path):
    ini = tmp_path / "config.ini"
    ini.write_text(
        "[synth.depression]\n"
        "n_positive = 6\nn_controls_per = 2\nposts_per_user = 4\n"
        "signal_rate = 1.0\nvocab_size = 40\n"
        "[synth.risk]\n"
        "n_train = 24\nn_test = 8\nvocab_size = 60\n"
        "[depression]\n"
        "embed_dim = 6\nconv_filters = 4\nmerge_window = 2\nmerge_stride = 2\n"
        "merge_filters = 4\ndense_dims = 6\nn_term = 8\nmin_freq = 1\n"
        "epochs = 2\nlr = 0.01\nn_post = 4\nstrategy = earliest\n"
        "[risk]\n"
        "encoder_dim = 24\nmax_sentences = 5\nconv_filters = 4\npool_n = 2\n"
        "dense_dims = 6\nval_fraction = 0.25\nepochs = 2\nlr = 0.01\n")

    dep_data = tmp_path / "dep_data"
    assert cli_main(["synth", "--task", "depression", "--config", str(ini),
                     "--out", str(dep_data), "--seed", "7"]) == 0
    risk_data = tmp_path / "risk_data"
    assert cli_main(["synth", "--task", "risk", "--config", str(ini),
                     "--out", str(risk_data), "--seed", "7"]) == 0

    checkpoints = {}
    for task, data in (("depression", dep_data), ("risk", risk_data)):
        digests = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{task}_{attempt}"
            assert cli_main(["train", "--task", task, "--config", str(ini),
                             "--data", str(data), "--out", str(out),
                             "--seed", "5"]) == 0
            digests.append(sha256(out / "checkpoint.json"))
        checkpoints[task] = digests[0] == digests[1]

    rows = []
    for i in range(4):
        uid = f"d{i:02d}"
        for j in range(3):
            rows.append({"post_id": f"{uid}-p{j}", "user_id": uid,
                         "community": ("games", "news")[j % 2], "timestamp": j,
                         "text": "regular chatter"})
        rows.append({"post_id": f"{uid}-diag", "user_id": uid,
                     "community": "offtopic", "timestamp": 50,
                     "text": "I was diagnosed with depression."})
    for i in range(12):
        uid = f"c{i:02d}"
        for j in range(4):
            rows.append({"post_id": f"{uid}-p{j}", "user_id": uid,
                         "community": ("games", "news", "sports")[j % 3],
                         "timestamp": j, "text": "regular chatter"})
    posts_path = tmp_path / "posts.ndjson"
    with open(posts_path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    build_ini = tmp_path / "build.ini"
    build_ini.write_text("[dataset]\nk = 2\ntolerance = 0.5\nmin_prior_posts = 3\n")
    build_digests = []
    for attempt in ("a", "b"):
        out = tmp_path / f"build_{attempt}"
        assert cli_main(["build-dataset", "--posts", str(posts_path),
                         "--config", str(build_ini), "--out", str(out)]) == 0
        build_digests.append(tuple(
            sha256(out / f"{split}.{kind}.ndjson")
            for split in ("train", "validation", "test")
            for kind in ("posts", "labels")))
    build_ok = build_digests[0] == build_digests[1]
    ok = checkpoints["depression"] and checkpoints["risk"] and build_ok
    report(9, ok,
           f"train twice bit-identical: depression {checkpoints['depression']}, "
           f"risk {checkpoints['risk']}; build-dataset hashes identical: {build_ok}")
