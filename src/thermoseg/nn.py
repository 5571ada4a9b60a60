"""Dense feed-forward classifier built directly on numpy.

Covers both experiment architectures (16/32/16 relu and 10/20/4 tanh with
a softmax head), categorical cross entropy, plain SGD with staircase
learning-rate decay, Adam, epoch shuffling, early stopping with snapshot
restore, and a versioned plain-text model format. Every model carries
its training rows' scaling statistics, so prediction takes raw features.
Training is a single deterministic sequence of mini-batch updates for a
given seed.

A forked feeder process (`_kernels.feed`) gathers each step's rows and
one-hot offsets ahead of it; inline, on one core or without os.fork, the
same `_Batches.fill` runs, so every bit is the same for any core count.
"""

import contextlib
import math
import mmap
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import _kernels, keyfile
from .errors import ComputeError, ValidationError
from .features import ScalingStats, scale
from .ingest import INVALID_LABEL, LabelMask

ACTIVATIONS = ("relu", "tanh", "softmax")
PROB_FLOOR = 1e-15

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

MODEL_VERSION = 1
_MODEL_MAGIC = "thermoseg-model v"


@dataclass(frozen=True)
class MlpModel:
    layer_sizes: tuple
    activations: tuple
    weights: tuple                # W_l is (n_in, n_out)
    biases: tuple
    stats: ScalingStats           # the training rows' scaling statistics

    def __post_init__(self):
        sizes = self.layer_sizes
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValidationError("need at least input and output layers")
        if len(self.activations) != len(sizes) - 1:
            raise ValidationError("one activation per trainable layer")
        for i, act in enumerate(self.activations):
            if act not in ACTIVATIONS:
                raise ValidationError(f"unknown activation {act!r}")
            if act == "softmax" and i != len(self.activations) - 1:
                raise ValidationError("softmax is only valid at the output")
        if self.activations[-1] != "softmax":
            raise ValidationError("output layer must be softmax")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValidationError("weight/bias count must match layer count")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
                raise ValidationError(f"layer {i} parameter shape mismatch")

    @property
    def input_size(self):
        return self.layer_sizes[0]

    @property
    def output_size(self):
        return self.layer_sizes[-1]


def init_model(layer_sizes, activations, seed, stats):
    """Fan-balanced uniform weight init, zero biases, carrying `stats`."""
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for n_in, n_out in zip(layer_sizes, layer_sizes[1:]):
        limit = math.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-limit, limit, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return MlpModel(tuple(layer_sizes), tuple(activations), tuple(weights),
                    tuple(biases), stats)


def _forward_into(weights, bias_cols, kinds, a, acts, column):
    """Class probabilities of a feature-major (features, n) batch, in place.

    Layer l writes W_l.T @ a plus its bias column, then its activation,
    into acts[l] (units x n); the softmax reduces over axis 0, with
    `column` (length n) as its scratch row. Returns the probability
    buffer acts[-1].
    """
    for w, b, kind, z in zip(weights, bias_cols, kinds, acts):
        np.matmul(w.T, a, out=z)
        z += b
        if kind == "tanh":
            np.tanh(z, out=z)
        elif kind == "relu":
            np.maximum(z, 0.0, out=z)
        a = z
    np.maximum.reduce(a, axis=0, out=column)
    a -= column
    np.exp(a, out=a)
    np.add.reduce(a, axis=0, out=column)
    a /= column
    # every probability lies in [0, 1], so the sum is finite exactly when
    # each entry is
    if not math.isfinite(a.sum()):
        raise ComputeError("non-finite class probabilities")
    return a


def forward(model, x):
    """(N, K) class probabilities of an N x F batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_size:
        raise ValidationError(
            f"expected an N x {model.input_size} batch, got shape {x.shape}")
    if not all(np.isfinite(w).all() for w in model.weights):
        raise ComputeError("model weights are non-finite")
    n = x.shape[0]
    acts = [np.empty((units, n)) for units in model.layer_sizes[1:]]
    # an overflow shows as non-finite probabilities: one ComputeError
    with np.errstate(over="ignore", invalid="ignore"):
        return _forward_into(model.weights, [b[:, None] for b in model.biases],
                             model.activations, x.T, acts, np.empty(n)).T


def loss(probs, labels):
    """Mean categorical cross entropy of (N, K) probabilities against N
    class indices, probabilities floored at 1e-15."""
    picked = probs[np.arange(probs.shape[0]), labels]
    return float(np.mean(-np.log(np.maximum(picked, PROB_FLOOR))))


def accuracy(probs, labels):
    """Share of the (N, K) probability rows whose argmax is the label."""
    return float(np.mean(probs.argmax(axis=1) == labels))


class _TrainStep:
    """One mini-batch gradient and update over buffers allocated once.

    The parameters sit in one flat buffer, each layer's weights then its
    bias as views, and so do their gradients, so an optimizer update is a
    few ufunc calls over the whole model. Activations and deltas are
    stored feature-major (units x batch), and the forward pass is
    `_forward_into` over them. A short last batch uses the leading
    columns of the same buffers. Apart from views, a step allocates
    nothing whose size grows with the batch.
    """

    def __init__(self, model, width):
        self.kinds = model.activations
        shapes = list(zip(model.layer_sizes, model.layer_sizes[1:]))
        size = sum((n_in + 1) * n_out for n_in, n_out in shapes)
        self.params = np.empty(size)
        self.grads = np.empty(size)
        self.weights, self.biases = _layer_views(self.params, shapes)
        self.grad_w, self.grad_b = _layer_views(self.grads, shapes)
        for view, value in zip(self.weights + self.biases,
                               model.weights + model.biases):
            view[...] = value
        # the model reads the live buffer, so checks see every update
        self.model = replace(model, weights=tuple(self.weights),
                             biases=tuple(self.biases))
        self.bias_cols = [b[:, None] for b in self.biases]
        self.moment1 = np.zeros(size)
        self.moment2 = np.zeros(size)
        self.scratch = np.empty(size)
        self.update = np.empty(size)

        self.acts = [np.empty((n_out, width)) for _, n_out in shapes]
        self.deltas = [np.empty((n_out, width)) for _, n_out in shapes[:-1]]
        self.column = np.empty(width)
        self.picked = np.empty(width)
        self._views = {}

    def _columns(self, n):
        """The first n batch columns of every buffer."""
        views = self._views.get(n)
        if views is None:
            views = ([a[:, :n] for a in self.acts],
                     [d[:, :n] for d in self.deltas], self.column[:n],
                     self.picked[:n])
            self._views[n] = views
        return views

    def gradients(self, x, target):
        """Fill `grads` with the mean cross-entropy gradient of a batch as
        _Batches gathers it: rows x and their labels' flat offsets."""
        acts, deltas, column, picked = self._columns(x.shape[0])
        probs = _forward_into(self.weights, self.bias_cols, self.kinds,
                              x.T, acts, column)
        # (p - onehot) / n in place: entry (y_j, j) of the full-width buffer
        flat = self.acts[-1].reshape(-1)
        flat.take(target, out=picked, mode="clip")
        picked -= 1.0
        flat.put(target, picked, mode="clip")
        probs /= probs.shape[1]

        delta = probs
        for layer in range(len(self.weights) - 1, -1, -1):
            a = acts[layer - 1] if layer > 0 else x.T
            np.matmul(a, delta.T, out=self.grad_w[layer])
            np.add.reduce(delta, axis=1, out=self.grad_b[layer])
            if layer > 0:
                np.matmul(self.weights[layer], delta, out=deltas[layer - 1])
                delta = deltas[layer - 1]
                # the activation is spent: overwrite it with its derivative
                if self.kinds[layer - 1] == "relu":
                    np.greater(a, 0.0, out=a)
                else:
                    np.multiply(a, a, out=a)
                    np.subtract(1.0, a, out=a)
                delta *= a

    def adam(self, rate, t):
        """Bias-corrected Adam update number t (1-based)."""
        m1, v2, grad = self.moment1, self.moment2, self.grads
        scratch, update = self.scratch, self.update
        m1 *= ADAM_BETA1
        np.multiply(grad, 1.0 - ADAM_BETA1, out=scratch)
        m1 += scratch
        v2 *= ADAM_BETA2
        np.multiply(grad, 1.0 - ADAM_BETA2, out=scratch)
        scratch *= grad
        v2 += scratch
        np.divide(v2, 1.0 - ADAM_BETA2 ** t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        np.divide(m1, 1.0 - ADAM_BETA1 ** t, out=update)
        update *= rate
        update /= scratch
        self.params -= update

    def sgd(self, rate):
        np.multiply(self.grads, rate, out=self.update)
        self.params -= self.update


def _layer_views(flat, shapes):
    """(weights, biases) views into a flat buffer, layer by layer."""
    weights, biases = [], []
    offset = 0
    for n_in, n_out in shapes:
        weights.append(flat[offset:offset + n_in * n_out].reshape(n_in, n_out))
        offset += n_in * n_out
        biases.append(flat[offset:offset + n_out])
        offset += n_out
    return weights, biases


FEED_SLOTS = 4      # steps a feeder may gather ahead of the training step


class _Batches:
    """One run's batches in a ring of FEED_SLOTS slots, one anonymous shared
    mapping. Step k takes the next batch_size rows (a short last batch, its
    slot's leading rows) of its epoch's permutation; one generator draws
    them in order, and with `ahead` draws each next one on a thread."""

    def __init__(self, vectors, labels, batch_size, seed, ahead):
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.intp)
        n, features = self.vectors.shape
        self.batch_size, self.width = batch_size, min(batch_size, n)
        self.steps_per_epoch = -(-n // batch_size)
        self.rng, self.drawn = np.random.default_rng(seed), None
        # a pool starts its thread at the first draw, in the feeder
        self.pool = ThreadPoolExecutor(1) if ahead else None
        self.offsets = np.arange(self.width)
        # a slot holds its rows, then its labels' offsets
        size = self.width * features
        ring = np.frombuffer(mmap.mmap(-1, FEED_SLOTS * (size + self.width)
                                       * 8)).reshape(FEED_SLOTS, -1)
        self.x = ring[:, :size].reshape(FEED_SLOTS, self.width, features)
        self.target = ring[:, size:].view(np.intp)

    def batch(self, k, slot):
        """(rows, label offsets) views of step k's batch in `slot`."""
        n = min(self.width, len(self.labels)
                - k % self.steps_per_epoch * self.batch_size)
        return self.x[slot, :n], self.target[slot, :n]

    def fill(self, k, slot):
        """Gather step k's batch into `slot`."""
        lo = k % self.steps_per_epoch * self.batch_size
        if lo == 0:
            self.order = self._draw()
        self.gather(self.order[lo:lo + self.batch_size], slot)

    def gather(self, idx, slot):
        """Rows idx into `slot`, and the flat offset y * width + j of row
        j's label in a (classes, width) buffer; returns both views."""
        x, target = self.x[slot, :len(idx)], self.target[slot, :len(idx)]
        self.vectors.take(idx, axis=0, out=x, mode="clip")
        self.labels.take(idx, out=target, mode="clip")
        target *= self.width
        target += self.offsets[:len(idx)]
        return x, target

    def _draw(self):
        n = len(self.labels)
        if self.pool is None:
            return self.rng.permutation(n)
        # the pool's one thread draws in submission order
        drawn = self.drawn or self.pool.submit(self.rng.permutation, n)
        self.drawn = self.pool.submit(self.rng.permutation, n)
        return drawn.result()


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"       # adam | sgd-decay
    learning_rate: float = 1e-5
    decay_step: int = 1000
    decay_rate: float = 0.9
    batch_size: int = 2048
    epochs: int = 0               # 0 = unbounded, rely on max_steps
    max_steps: int = 0            # 0 = unbounded, rely on epochs
    early_stopping: Optional[tuple] = None  # (checks_apart, consecutive)
    trace_every: int = 0          # 0 = each epoch; refused with early_stopping
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in ("adam", "sgd-decay"):
            raise ValidationError(f"unknown optimizer {self.optimizer!r}")
        rate = self.learning_rate
        if not (math.isfinite(rate) and rate > 0):
            raise ValidationError(
                f"learning_rate must be finite and > 0, got {rate}")
        if self.batch_size < 1:
            raise ValidationError("batch size must be >= 1")
        for key in ("epochs", "max_steps", "trace_every", "seed"):
            if getattr(self, key) < 0:
                raise ValidationError(
                    f"{key} must be >= 0, got {getattr(self, key)}")
        if self.optimizer == "sgd-decay":
            if self.decay_step < 1 or not 0 < self.decay_rate <= 1:
                raise ValidationError("bad decay schedule")
        stop = self.early_stopping
        if stop is not None and (len(stop) != 2 or min(stop) < 1):
            raise ValidationError(f"early_stopping takes two integers >= 1, "
                                  f"got {stop}")
        if stop is not None and self.trace_every:
            raise ValidationError(
                "trace_every and early_stopping cannot both be set: "
                "early_stopping's first number is the check interval")


def lr_at(config, step):
    """Learning rate before update number `step` (0-based)."""
    if step < 0:
        raise ValidationError("step must be >= 0")
    if config.optimizer == "sgd-decay":
        return config.learning_rate * config.decay_rate ** (step // config.decay_step)
    return config.learning_rate


class EarlyStopping:
    """Halt after N consecutive validation-loss increases between checks.

    Keeps a snapshot from the last check whose loss did not increase, so
    the caller can rewind past the whole degradation run.
    """

    def __init__(self, checks_apart, consecutive_increases):
        self.checks_apart = checks_apart
        self.consecutive_increases = consecutive_increases
        self.previous_loss = None
        self.increases = 0
        self.snapshot = None
        self.snapshot_step = None

    def update(self, step, val_loss, snapshot):
        """Record one check; returns True when training should halt."""
        if self.previous_loss is None or val_loss <= self.previous_loss:
            self.increases = 0
            self.snapshot = snapshot
            self.snapshot_step = step
        else:
            self.increases += 1
        self.previous_loss = val_loss
        return self.increases >= self.consecutive_increases


@dataclass
class TrainTrace:
    steps: list = field(default_factory=list)
    epochs: list = field(default_factory=list)
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    train_acc: list = field(default_factory=list)
    val_acc: list = field(default_factory=list)
    stop_reason: str = ""
    restored_step: Optional[int] = None
    seconds: float = 0.0          # wall time of the step loop, checks included
    batch_wait: float = 0.0       # seconds of it spent getting the batches
    feeder: str = ""              # "process" or "inline": who gathered

    def record(self, step, epoch, t_loss, v_loss, t_acc, v_acc):
        if self.steps and step <= self.steps[-1]:
            return False
        self.steps.append(step)
        self.epochs.append(epoch)
        self.train_loss.append(t_loss)
        self.val_loss.append(v_loss)
        self.train_acc.append(t_acc)
        self.val_acc.append(v_acc)
        return True

    @property
    def saved_val_acc(self):
        """Validation accuracy of the returned weights: at the restored
        snapshot after an early stop, else at the last check."""
        at = (-1 if self.restored_step is None
              else self.steps.index(self.restored_step))
        return self.val_acc[at]


_EVAL_CAP = 4096


def evaluate(model, vectors, labels):
    probs = forward(model, vectors)
    return loss(probs, labels), accuracy(probs, labels)


def train(model, train_ds, val_ds, config):
    """Mini-batch training; returns (trained model, trace).

    Expects pre-scaled datasets. Non-finite losses abort. With early
    stopping on, a halt restores the snapshot taken before the losing
    streak began.
    """
    if train_ds.feature_count != model.input_size:
        raise ValidationError("training features do not match model input")
    if train_ds.class_count > model.output_size:
        raise ValidationError(
            f"{train_ds.class_count} classes exceed {model.output_size} outputs")
    if config.epochs <= 0 and config.max_steps <= 0:
        raise ValidationError("need a positive epoch or step budget")

    stopper = (EarlyStopping(*config.early_stopping)
               if config.early_stopping else None)
    trace = TrainTrace()
    trace.feeder = "inline" if _kernels.feeds_inline() else "process"
    batches = _Batches(train_ds.vectors, train_ds.labels, config.batch_size,
                       config.seed, trace.feeder == "process")
    runner = _TrainStep(model, batches.width)
    current = runner.model
    steps_per_epoch = batches.steps_per_epoch
    check_every = (stopper.checks_apart if stopper is not None
                   else config.trace_every or steps_per_epoch)

    eval_x = train_ds.vectors[:_EVAL_CAP]
    eval_y = train_ds.labels[:_EVAL_CAP]
    # the first positive budget to run out stops training; a tie is the
    # epoch budget's
    budget, trace.stop_reason = min(
        (limit, reason) for limit, reason in (
            (config.epochs * steps_per_epoch, "epoch-budget"),
            (config.max_steps, "step-budget")) if limit > 0)

    def measure(step):
        """Record the losses after `step` steps, in epoch (step - 1) //
        steps_per_epoch, counted from 0."""
        t_loss, t_acc = evaluate(current, eval_x, eval_y)
        v_loss, v_acc = evaluate(current, val_ds.vectors, val_ds.labels)
        trace.record(step, (step - 1) // steps_per_epoch, t_loss, v_loss,
                     t_acc, v_acc)
        return t_loss, v_loss

    step = 0
    started = time.perf_counter()
    # an overflow shows as one ComputeError below; set once, not per step
    with np.errstate(over="ignore", invalid="ignore"), contextlib.closing(
            _kernels.feed(FEED_SLOTS, batches.fill, budget)) as slots:
        while True:
            # forked, the wait for the feeder's token; inline, the gather
            asked = time.perf_counter()
            slot = next(slots, None)
            trace.batch_wait += time.perf_counter() - asked
            if slot is None:
                break
            runner.gradients(*batches.batch(step, slot))
            if config.optimizer == "adam":
                runner.adam(config.learning_rate, step + 1)
            else:
                runner.sgd(lr_at(config, step))
            step += 1
            if step % check_every:
                continue
            t_loss, v_loss = measure(step)
            if not (math.isfinite(t_loss) and math.isfinite(v_loss)):
                raise ComputeError(f"non-finite loss at step {step}")
            if stopper is not None and stopper.update(step, v_loss,
                                                      runner.params.copy()):
                trace.stop_reason = "early-stopping"
                runner.params[...] = stopper.snapshot
                trace.restored_step = stopper.snapshot_step
                break
    trace.seconds = time.perf_counter() - started
    if trace.steps[-1:] != [step]:
        measure(step)

    final = replace(model, weights=tuple(w.copy() for w in runner.weights),
                    biases=tuple(b.copy() for b in runner.biases))
    return final, trace


def predict(model, vectors):
    """Argmax class of each raw (unscaled) N x F feature row, scaled by the
    training rows' statistics that every model carries."""
    scaled = scale(np.array(vectors, dtype=np.float64), model.stats)
    return forward(model, scaled).argmax(axis=1)


def predict_map(model, image):
    """Per-pixel argmax class map of a raw (unscaled) feature image,
    scaled as `predict` scales it; invalid pixels stay invalid."""
    if image.feature_count != model.input_size:
        raise ValidationError(
            f"feature image width {image.feature_count} does not match "
            f"model input {model.input_size}")
    flat = image.values.reshape(-1, image.feature_count)
    labels = np.full(flat.shape[0], INVALID_LABEL, dtype=np.int64)
    flags = image.valid.reshape(-1)
    idx = np.nonzero(flags)[0]
    for lo in range(0, idx.shape[0], 65536):
        sub = idx[lo:lo + 65536]
        labels[sub] = predict(model, flat[sub])
    return LabelMask(labels.reshape(image.valid.shape), image.valid.copy())


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_model(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_MODEL_MAGIC}{MODEL_VERSION}\n")
        fh.write("layers = " + " ".join(str(s) for s in model.layer_sizes) + "\n")
        fh.write("activations = " + " ".join(model.activations) + "\n")
        fh.write("scaling = 1\n")          # fixed: every model has its stats
        fh.write("mean = " + " ".join("%.17g" % v for v in model.stats.mean) + "\n")
        fh.write("std = " + " ".join("%.17g" % v for v in model.stats.std) + "\n")
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            fh.write(f"layer {i}\n")
            keyfile.write_rows(fh, w)
            fh.write("bias\n")
            keyfile.write_rows(fh, b[np.newaxis])
        fh.write("end\n")


def load_model(path):
    with keyfile.reading(path) as text:
        magic = text[0] if text else ""
        if not magic.startswith(_MODEL_MAGIC):
            raise ValidationError("not a model file", 1)
        try:
            version = int(magic[len(_MODEL_MAGIC):])
        except ValueError as exc:
            raise ValidationError("bad version line", 1) from exc
        if version != MODEL_VERSION:
            raise ValidationError(f"model version {version} is not "
                                  f"supported (expected {MODEL_VERSION})", 1)

        at = (text + ["layer 0"]).index("layer 0")     # the header ends there
        keys = keyfile.KeyFile(text[1:at], 2)
        head = keys.section("")
        sizes = head.integers("layers", 1)
        activations = tuple(head.text("activations").split())
        head.text("scaling", choices=("1",))
        columns = []
        for key, limit in (("mean", "finite"), ("std", "finite and >= 0")):
            values = np.array(head.numbers(key))
            if values.size != sizes[0]:
                head.fail(key, f"expected {sizes[0]} values, got {values.size}")
            bad = ~np.isfinite(values) | (key == "std") & (values < 0)
            if bad.any():
                head.fail(key, f"must be {limit}, got {values[bad][0]:g}")
            columns.append(values)
        keys.finish()
        # each layer is a marker line, its weight rows, "bias" and one row
        blocks = [(marker, count, n_out)
                  for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:]))
                  for marker, count in ((f"layer {i}", n_in), ("bias", 1))]
        params = []
        for marker, count, width in blocks + [("end", 0, 0)]:
            if text[at:at + 1] != [marker]:
                raise ValidationError(f"expected {marker!r}", at + 1)
            if count:
                params.append(keyfile.rows(text[at + 1:at + 1 + count], count,
                                           width, at + 2))
                bad = np.nonzero(~np.isfinite(params[-1]).all(axis=1))[0]
                if bad.size:
                    raise ValidationError(f"{marker!r} holds a non-finite "
                                          f"value", at + 2 + bad[0])
            at += 1 + count
        if at < len(text):
            raise ValidationError("a line after 'end'", at + 1)
        weights, biases = params[::2], [b[0] for b in params[1::2]]
        return MlpModel(sizes, activations, tuple(weights), tuple(biases),
                        ScalingStats(*columns))


def write_trace(trace, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,epoch,train_loss,val_loss,train_acc,val_acc\n")
        for i in range(len(trace.steps)):
            fh.write(f"{trace.steps[i]},{trace.epochs[i]},"
                     f"{trace.train_loss[i]:.9g},{trace.val_loss[i]:.9g},"
                     f"{trace.train_acc[i]:.9g},{trace.val_acc[i]:.9g}\n")
        restored = ("" if trace.restored_step is None
                    else f", restored step {trace.restored_step}")
        fh.write(f"# stop: {trace.stop_reason}{restored}\n")
