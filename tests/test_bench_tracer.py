"""The benchmark's traced run can still wrap the library.

``perfbench/tracer.py`` replaces module and class attributes of triagekit by
name (ops as ``models`` imports them, ``traineval.scale``, ``backward`` and
``adam_step``, the models' ``loss`` and ``classify``). A rename in the library
breaks only ``perfbench/run.py --trace 1``, so this runs the tracer on a tiny
training of each task. It runs in a subprocess, which keeps the wrapping out
of this test process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import sys

sys.path[:0] = sys.argv[1:3]
import numpy as np

import triagekit
import triagekit.corpus
import triagekit.models
import triagekit.nn
import triagekit.traineval
import tracer as tracing

tracer = tracing.Tracer()
tracing.install(tracer, triagekit)
from triagekit import corpus, models, traineval
from triagekit.corpus import CONTROL, DIAGNOSED, Post, RiskLabel, ThreadInstance, UserRecord

tracer.phase_id = tracing.PHASES.index("train")
rng = np.random.default_rng(0)
# Risk inputs go through thread_matrices, which must keep calling
# instance_matrices by the name the tracer counts input density at.
instances = [ThreadInstance(Post(f"t{y}{i}", "u", "forum", 1, f"Level {y} post {i}. Short."),
                            (), RiskLabel(y))
             for y in range(4) for i in range(2)]
threads = traineval.thread_matrices(instances, corpus.HashedSentenceEncoder(dim=6), 4)
config = models.RiskModelConfig("class_metric", sentence_dim=6, conv_filters=3, pool_n=2,
                                dense_dims=(5,), max_sentences=4)
traineval.train_risk(models.RiskModel(config), threads, threads,
                     traineval.TrainConfig(epochs=1))

users = []
for i, label in enumerate((DIAGNOSED, CONTROL, CONTROL)):
    posts = tuple(Post(f"u{i}-p{j}", f"u{i}", "forum", j, "text",
                       tuple(int(t) for t in rng.integers(2, 12, size=6)))
                  for j in range(3))
    users.append(UserRecord(f"u{i}", posts, label,
                            posts[0].post_id if label == DIAGNOSED else None))
config = models.DepressionModelConfig(vocab_size=12, embed_dim=4, conv_filters=3,
                                      merge_filters=3, dense_dims=(4,), n_term=6,
                                      balance="weighted")
traineval.train_depression(models.DepressionModel(config), users, users,
                           traineval.SelectionConfig("earliest", n_post=3, n_term=6),
                           traineval.TrainConfig(epochs=1))
print(json.dumps(tracing.layer_metrics(tracer, 1)))
"""


def test_tracer_wraps_library_and_times_training():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert metrics["traineval.train_s"] > 0
    assert metrics["nn.adam_ms"] > 0 and metrics["nn.backward_ms"] > 0
    assert metrics["nn.grads_ms"] > 0       # ParamNodes.grads, wrapped by that name
    assert metrics["models.forward_ms"] > 0
    assert 0 < metrics["corpus.input_density"] < 1
    # both tasks' steps run their ops through the wrapped names
    for op in ("embedding_lookup", "conv1d", "mean_rows", "max_pool", "hinge", "cross_entropy",
               "scale"):
        assert metrics[f"nn.op.{op}.calls"] > 0, op
