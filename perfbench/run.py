#!/usr/bin/env python3
"""triagekit benchmark: one workload per process.

    python3 perfbench/run.py --workload risk-paper --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory. A run generates the workload's input files from the seed,
then sets up (several times, to report a median), trains through
``traineval.train_risk`` / ``traineval.train_depression``, saves and reloads
the checkpoint, and serves the held-out items one request at a time from a
single closed-loop client. The serve set holds ``--seconds`` times the
workload's planned request rate, so serving lasts about ``--seconds`` on the
reference machine (see NOTES.md) and does the same work on every commit.

The reference machine runs fast and slow by turns, for seconds at a time, as
other tenants load its host. So the timings take the fastest of work done
more than once: the serve set is several copies of one shape with fresh
words, and a slot's latency is the fastest of its copies; the training
throughput re-times the step loop at the pace of its faster stretches.

With ``--trace 0`` the last line of stdout is the end-to-end metrics; with
``--trace 1`` the library is wrapped by ``tracer.install`` and the last line is
the per-layer metrics. Earlier lines carry the machine record and details.
Generated files live under ``.bench_out/`` and are removed at the end, except
the span file of a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
N_SETUPS = 5
LATE_SETUPS = 2
# Renderings of the serve set; a slot's latency is the fastest of its copies.
COPIES = 8
# Stretches of equal step count that the training step loop is cut into.
TRAIN_WINDOWS = 10
# Seed of the encoder key, validation split, model init and training streams.
# It is fixed so that --seed varies the inputs alone.
MODEL_SEED = 0


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


# Must precede the first numpy import: OpenBLAS reads it once, at load. One
# thread by default: a threaded gemm waits for the slower of two shared cores.
os.environ["OPENBLAS_NUM_THREADS"] = str(
    min(_nproc(), int(os.environ.get("OPENBLAS_NUM_THREADS", 1))))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tracer as tracing  # noqa: E402


def settle_allocator() -> None:
    """Free one 16 MiB block first, as a long-running process soon does.

    glibc raises its mmap threshold to the largest block freed so far (up to
    32 MiB) and its trim threshold to twice that. Left alone, whether each
    step's temporaries are mmapped and faulted in afresh depends on which
    sizes a run happens to free first, and the tracer's own allocations
    change that; on risk-small it moved training time by a third.
    """
    block = np.empty(2 * 2**20)
    del block


def import_program():
    """triagekit from this checkout's src/, never from site-packages."""
    if not (SRC / "triagekit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no triagekit sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import triagekit
    import triagekit.corpus
    import triagekit.models
    import triagekit.nn
    import triagekit.traineval
    if Path(triagekit.__file__).resolve().parent != (SRC / "triagekit").resolve():
        sys.exit(f"perfbench: imported triagekit from {triagekit.__file__}, not {SRC}")
    return triagekit


# ---------------------------------------------------------------------------
# Machine record

def _blas_threads() -> int:
    """Thread count OpenBLAS reports, from the library numpy loaded; -1 if unknown."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return -1
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": _nproc(),
        "ram_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# Workloads

def train_config(tk, lr: float):
    return tk.traineval.TrainConfig(epochs=1, lr=lr,
                                    seed=tk.traineval.derive_seed(MODEL_SEED, "train"))


_CLOCKED: dict[type, type] = {}


def clocked(cls: type) -> type:
    """Subclass of a model class whose ``loss`` first notes the time.

    ``train_*`` calls ``model.loss`` once per step, so the notes are the start
    time of every training step. It costs one clock read per step and wraps
    nothing in the library.
    """
    if cls not in _CLOCKED:
        class Clocked(cls):
            def loss(self, *args, **kwargs):
                STEP_STARTS.append(time.perf_counter())
                return super().loss(*args, **kwargs)
        Clocked.__name__ = Clocked.__qualname__ = f"Clocked{cls.__name__}"
        _CLOCKED[cls] = Clocked
    return _CLOCKED[cls]


STEP_STARTS: list[float] = []


class RiskWorkload:
    """Risk triage: thread instances encoded as sentence-vector matrices."""

    n_classes = 4

    def __init__(self, variant: str, dim: int, max_sentences: int, train_threads: int,
                 train_posts: int | None, serve_posts: int | None, val_frac: float,
                 lr: float, serve_rate: float):
        """``*_posts`` is the posts per thread of growing threads; None makes
        independent threads."""
        self.variant = variant
        self.dim = dim
        self.max_sentences = max_sentences
        self.train_threads = train_threads
        self.train_posts = train_posts
        self.serve_posts = serve_posts
        self.val_frac = val_frac
        self.lr = lr
        self.serve_rate = serve_rate

    def slots(self, n: int) -> int:
        """Serve slots of one copy: at least n, whole threads."""
        per = self.serve_posts or 1
        return math.ceil(n / per) * per

    def generate(self, work: Path, seed: int, n_slots: int, copies: int) -> None:
        train, serve = work / "train.threads.ndjson", work / "serve.threads.ndjson"
        if self.train_posts:
            inputs.growing_threads(train, seed, "t", self.train_threads, self.train_posts)
        else:
            inputs.independent_threads(train, seed, "t", self.train_threads)
        if self.serve_posts:
            inputs.growing_threads(serve, seed, "s", n_slots // self.serve_posts,
                                   self.serve_posts, copies)
        else:
            inputs.independent_threads(serve, seed, "s", n_slots, copies)

    def setup(self, tk, work: Path) -> dict:
        corpus, models, nn, traineval = tk.corpus, tk.models, tk.nn, tk.traineval
        threads = corpus.read_threads(work / "train.threads.ndjson")
        encoder = corpus.HashedSentenceEncoder(dim=self.dim,
                                               seed=traineval.derive_seed(MODEL_SEED, "encoder"))
        kept, held = traineval.stratified_split([int(t.label) for t in threads], self.val_frac,
                                                traineval.derive_seed(MODEL_SEED, "val-split"))
        train = traineval.thread_matrices([threads[i] for i in kept], encoder,
                                          self.max_sentences)
        val = traineval.thread_matrices([threads[i] for i in held], encoder,
                                        self.max_sentences)
        config = models.RiskModelConfig.for_variant(self.variant, sentence_dim=self.dim,
                                                    max_sentences=self.max_sentences)
        model = clocked(models.RiskModel)(config, seed=traineval.derive_seed(MODEL_SEED, "init"))
        nn.AdamState(model.params)
        return {"threads": threads, "encoder": encoder, "train": train, "val": val,
                "model": model}

    def train(self, tk, state: dict):
        return tk.traineval.train_risk(state["model"], state["train"], state["val"],
                                       train_config(tk, self.lr))

    def reload(self, tk, path: Path):
        return tk.models.RiskModel.load(path)[0]

    def serve_items(self, tk, work: Path, state: dict) -> list:
        return [(inst, int(inst.label))
                for inst in tk.corpus.read_threads(work / "serve.threads.ndjson")]

    def request(self, tk, model, state: dict, item) -> int:
        target, context = tk.models.instance_matrices(item, state["encoder"],
                                                      self.max_sentences)
        return int(model.classify(target, context))

    def f1(self, tk, gold: list[int], pred: list[int]) -> float:
        return tk.traineval.triage_report(gold, pred).groupings["non_green"]["f1"]

    def properties(self, tk, state: dict) -> dict[str, float]:
        split = tk.corpus.split_sentences
        counts = [len(split(t.target.text)) + sum(len(split(p.text)) for p in t.context)
                  for t in state["threads"]]
        return {"input.sentences_per_thread": float(np.mean(counts))}


class DepressionWorkload:
    """User-level detection: users' posts as token-id sequences."""

    n_classes = 2
    N_POST = 1500
    N_TERM = 100

    def __init__(self, train_diagnosed: int, controls_per: int, val_users: int,
                 posts_range: tuple[int, int], signal_rate: float, lr: float,
                 serve_rate: float):
        self.train_diagnosed = train_diagnosed
        self.controls_per = controls_per
        self.val_users = val_users
        self.posts_range = posts_range
        self.signal_rate = signal_rate
        self.lr = lr
        self.serve_rate = serve_rate

    def slots(self, n: int) -> int:
        return n

    def generate(self, work: Path, seed: int, n_slots: int, copies: int) -> None:
        rng = inputs.stream(inputs.SHAPE_SEED, "shape:users")
        lo, hi = self.posts_range
        n_train = self.train_diagnosed * (1 + self.controls_per)
        train_diag = [i < self.train_diagnosed for i in range(n_train)]
        inputs.user_split(work / "train", seed, "a", self.signal_rate,
                          rng.integers(lo, hi + 1, size=n_train).tolist(),
                          [train_diag[i] for i in rng.permutation(n_train)])
        inputs.user_split(work / "validation", seed, "b", self.signal_rate,
                          rng.integers(lo, hi + 1, size=self.val_users).tolist(),
                          [i % 2 == 0 for i in range(self.val_users)])
        # Serve users span the caps: a few posts (zero-padded merge) up to one
        # user above n_post, whose posts select_posts samples.
        counts = inputs.lognormal_schedule(n_slots, 40, 1.0, 1, self.N_POST, rng)
        counts[counts.index(max(counts))] = self.N_POST + 100
        inputs.user_split(work / "serve", seed, "c", self.signal_rate, counts,
                          [i % 4 == 0 for i in range(n_slots)], copies)

    def setup(self, tk, work: Path) -> dict:
        corpus, models, nn, traineval = tk.corpus, tk.models, tk.nn, tk.traineval
        train = corpus.load_users(work / "train.posts.ndjson", work / "train.labels.ndjson")
        val = corpus.load_users(work / "validation.posts.ndjson",
                                work / "validation.labels.ndjson")
        vocab = corpus.Vocabulary.from_texts(
            (p.text for u in train.values() for p in u.posts), min_freq=1)
        train = traineval.tokenize_users(train.values(), vocab)
        val = traineval.tokenize_users(val.values(), vocab)
        config = models.DepressionModelConfig(vocab_size=len(vocab), n_term=self.N_TERM)
        model = clocked(models.DepressionModel)(config,
                                                seed=traineval.derive_seed(MODEL_SEED, "init"))
        nn.AdamState(model.params)
        selection = traineval.SelectionConfig(n_post=self.N_POST, n_term=self.N_TERM,
                                              seed=traineval.derive_seed(MODEL_SEED, "selection"))
        return {"train": train, "val": val, "vocab": vocab, "model": model,
                "selection": selection}

    def train(self, tk, state: dict):
        return tk.traineval.train_depression(state["model"], state["train"], state["val"],
                                             state["selection"], train_config(tk, self.lr))

    def reload(self, tk, path: Path):
        return tk.models.DepressionModel.load(path)[0]

    def serve_items(self, tk, work: Path, state: dict) -> list:
        users = tk.corpus.load_users(work / "serve.posts.ndjson", work / "serve.labels.ndjson")
        tokenized = tk.traineval.tokenize_users((users[u] for u in sorted(users)),
                                                state["vocab"])
        state["served_users"] = tokenized
        return [(u, int(u.label == tk.corpus.DIAGNOSED)) for u in tokenized]

    def request(self, tk, model, state: dict, item) -> int:
        posts = tk.traineval.select_posts(item, state["selection"])
        return int(np.argmax(model.classify_user(posts)))

    def f1(self, tk, gold: list[int], pred: list[int]) -> float:
        return tk.traineval.binary_metrics(gold, pred)[2]

    def properties(self, tk, state: dict) -> dict[str, float]:
        users = list(state["train"]) + list(state.get("served_users", []))
        lengths = np.array([len(p.tokens) for u in users for p in u.posts])
        window = state["model"].config.conv_window
        return {
            "input.posts_per_user": float(np.mean([len(u.posts) for u in users])),
            "input.truncated_post_share": float(np.mean(lengths > self.N_TERM)),
            "input.short_post_share": float(np.mean(lengths < window)),
        }


WORKLOADS = {
    "risk-paper": RiskWorkload("cat_ce", dim=7200, max_sentences=20, train_threads=24,
                               train_posts=8, serve_posts=8, val_frac=0.05, lr=1e-3,
                               serve_rate=50.0),
    "risk-small": RiskWorkload("class_metric_ordinal", dim=64, max_sentences=8,
                               train_threads=3000, train_posts=None, serve_posts=None,
                               val_frac=0.02, lr=3e-4, serve_rate=1400.0),
    "depression-paper": DepressionWorkload(train_diagnosed=30, controls_per=15, val_users=16,
                                           posts_range=(15, 25), signal_rate=1.0,
                                           lr=1e-2, serve_rate=70.0),
}
PROPERTY_KEYS = ("input.sentences_per_thread", "input.posts_per_user",
                 "input.truncated_post_share", "input.short_post_share")


# ---------------------------------------------------------------------------
# One run

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed requests are +inf and count as misses."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def window_paces(starts: list[float], windows: int) -> list[float]:
    """Per-step time of each of ``windows`` stretches of equal step count of
    the step loop, which runs from the first step's start to the last's."""
    per = (len(starts) - 1) // windows
    if per < 1:
        return []
    return [(starts[(j + 1) * per] - starts[j * per]) / per for j in range(windows)]


def paced_train_s(call_s: float, starts: list[float], paces: list[float]) -> float:
    """Wall time of a train_* call with its step loop run at the pace of its
    faster half.

    The loop's time is replaced by its step count times the mean per-step
    time of the faster half of its stretches. The rest of the call (its
    set-up and the validation pass) counts as measured.
    """
    if not paces:
        return call_s
    fast = sorted(paces)[:max(1, len(paces) // 2)]
    return call_s - (starts[-1] - starts[0]) + (len(starts) - 1) * sum(fast) / len(fast)


def run(tk, name: str, seed: int, seconds: int, traced: bool) -> dict:
    workload = WORKLOADS[name]
    work = OUT / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(tk, workload, work, name, seed, seconds, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(tk, workload, work: Path, name: str, seed: int, seconds: int,
         traced: bool) -> dict:
    settle_allocator()
    n_slots = workload.slots(max(110, math.ceil(seconds * workload.serve_rate / COPIES)))
    workload.generate(work, seed, n_slots, COPIES)
    tracer = tracing.Tracer() if traced else tracing.NullTracer()
    if traced:
        tracing.install(tracer, tk)

    rss_mb = {}
    setup_times = []

    def set_up() -> dict:
        tracer.reset_counts()
        tracer.phase_id = tracing.PHASES.index("setup")
        with tracer.span("bench.setup"):
            t0 = time.perf_counter()
            built = workload.setup(tk, work)
            setup_times.append(time.perf_counter() - t0)
        return built

    for _ in range(N_SETUPS - LATE_SETUPS):
        state = None  # release the previous set-up before building the next
        state = set_up()
    rss_mb["setup"] = _peak_rss_mb()

    failed = 0
    tracer.phase_id = tracing.PHASES.index("train")
    STEP_STARTS.clear()
    with tracer.span("bench.train"):
        t0 = time.perf_counter()
        try:
            result = workload.train(tk, state)
        except (RuntimeError, FloatingPointError) as exc:
            print(f"training failed: {exc}", file=sys.stderr)
            result = None
        train_s = time.perf_counter() - t0
    rss_mb["train"] = _peak_rss_mb()
    rows = [] if result is None else [r for r in result.log if r["split"] == "train"]
    steps = sum(r["instances"] for r in rows)
    train_loss = rows[-1]["loss"] if rows else math.nan
    if result is None or not all(math.isfinite(r["loss"]) for r in rows):
        failed += 1
    paces = window_paces(STEP_STARTS, TRAIN_WINDOWS)
    paced_s = paced_train_s(train_s, STEP_STARTS, paces)

    tracer.phase_id = tracing.PHASES.index("other")
    checkpoint = work / "checkpoint.json"
    state["model"].save(checkpoint, seed=MODEL_SEED, step=steps)
    model = workload.reload(tk, checkpoint)
    items = workload.serve_items(tk, work, state)
    assert len(items) == COPIES * n_slots, (len(items), n_slots)
    rss_mb["serve_items"] = _peak_rss_mb()

    # Serving: the copies one after another, each item once. A slot's latency
    # is the fastest of its copies; a slot with a failed copy is a miss.
    tracer.phase_id = tracing.PHASES.index("serve")
    latencies = np.full((COPIES, n_slots), math.inf)
    gold, pred = [], []
    serve_t0 = time.perf_counter()
    for i, (item, label) in enumerate(items):
        with tracer.span("bench.request", request=i):
            t0 = time.perf_counter()
            try:
                predicted = workload.request(tk, model, state, item)
            except Exception as exc:  # a failed request is counted, not fatal
                print(f"request {i} failed: {exc!r}", file=sys.stderr)
                predicted = None
            elapsed = time.perf_counter() - t0
        if predicted is None or not 0 <= predicted < workload.n_classes:
            failed += 1
            continue
        latencies.flat[i] = elapsed
        gold.append(label)
        pred.append(predicted)
    serve_s = time.perf_counter() - serve_t0
    rss_mb["serve"] = _peak_rss_mb()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    tracer.phase_id = tracing.PHASES.index("other")
    slot_s = np.where(np.isinf(latencies).any(axis=0), math.inf, latencies.min(axis=0))

    params = sum(arr.size for _, arr in state["model"].params.items())
    if traced:
        layer = tracing.layer_metrics(tracer, len(setup_times))
        layer["nn.param_count"] = float(params)
        props = dict.fromkeys(PROPERTY_KEYS, 0.0)
        props.update(workload.properties(tk, state))
        layer.update(props)

    # The last set-ups run after serving, so that setup_s samples the start
    # and the end of the run. Each is dropped as soon as it is timed.
    state = model = items = None
    for _ in range(LATE_SETUPS):
        set_up()
    tracer.phase_id = tracing.PHASES.index("other")

    metrics = {
        "setup_s": (float(np.median(setup_times)), "s"),
        "train_examples_per_s": (steps / paced_s if paced_s else 0.0, "1/s"),
        "serve_p50_ms": (percentile(slot_s, 50) * 1e3, "ms"),
        "serve_p90_ms": (percentile(slot_s, 90) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb["serve"], "MB"),
        "train_loss": (train_loss, "loss"),
        "serve_f1": (workload.f1(tk, gold, pred), "f1"),
    }
    detail = {
        "workload": name, "seed": seed, "traced": traced, "setup_s_each": setup_times,
        "train_s": train_s, "train_paced_s": paced_s, "train_instances": steps,
        "train_steps_clocked": len(STEP_STARTS), "train_window_step_ms": [p * 1e3 for p in paces],
        "peak_rss_mb_by_phase": rss_mb,
        "serve_s": serve_s, "requests": n_slots * COPIES, "serve_slots": n_slots,
        "serve_copy_p50_ms": [percentile(row, 50) * 1e3 for row in latencies],
        "minor_faults": usage.ru_minflt, "sys_s": usage.ru_stime,
        "beyond_p90": n_slots - math.ceil(0.9 * n_slots), "params": params,
        "train_loss": train_loss, "serve_f1": metrics["serve_f1"][0],
        "train_log": [] if result is None else result.log,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    attempted = steps + n_slots * COPIES
    if traced:
        layer["trace.train_examples_per_s"] = metrics["train_examples_per_s"][0]
        layer["trace.serve_p50_ms"] = metrics["serve_p50_ms"][0]
        out = {k: (v, _unit(k)) for k, v in layer.items()}
        tracer.save(OUT / f"trace-{name}.npz")
    else:
        out = metrics
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.items()},
    }


def _unit(key: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_us", "us"), ("_s", "s"),
                         ("_share", "share"), ("_density", "share")):
        if key.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    tk = import_program()
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    result = run(tk, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
