"""Forward/backward math, optimizers, early stopping, model files."""

import math
import os
import signal
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import oracle
from thermoseg import _kernels, features, nn, tsr
from thermoseg.errors import ComputeError, ValidationError
from thermoseg.ingest import LabelMask


def _unit_stats(n):
    """Scaling statistics that leave n features as they are."""
    return features.ScalingStats(np.zeros(n), np.ones(n))


def _zero_model(sizes=(4, 4), activations=None):
    activations = activations or ("softmax",) * (len(sizes) - 1)
    weights = tuple(np.zeros((a, b)) for a, b in zip(sizes, sizes[1:]))
    biases = tuple(np.zeros(b) for b in sizes[1:])
    return nn.MlpModel(tuple(sizes), tuple(activations), weights, biases,
                       _unit_stats(sizes[0]))


def _blob_dataset(n_per_class, centers, sigma, seed, classes=None):
    rng = np.random.default_rng(seed)
    chunks = []
    labels = []
    for i, center in enumerate(centers):
        chunks.append(rng.normal(center, sigma, size=(n_per_class,
                                                      len(center))))
        labels.append(np.full(n_per_class, i))
    vectors = np.concatenate(chunks)
    labels = np.concatenate(labels)
    order = rng.permutation(vectors.shape[0])
    classes = classes or len(centers)
    return features.Dataset(vectors[order], labels[order], classes)


# ---------------------------------------------------------------------------
# forward pass and loss
# ---------------------------------------------------------------------------

def test_zero_model_is_uniform():
    model = _zero_model((3, 4))
    probs = nn.forward(model, np.array([[0.3, -2.0, 5.0]]))
    assert probs.shape == (1, 4)
    npt.assert_allclose(probs, 0.25)


def test_forward_rows_are_probability_vectors():
    model = nn.init_model((5, 10, 20, 4), ("tanh", "tanh", "softmax"), 3,
                          _unit_stats(5))
    rng = np.random.default_rng(0)
    probs = nn.forward(model, rng.normal(scale=3.0, size=(1000, 5)))
    assert probs.shape == (1000, 4)
    assert probs.min() >= 0.0
    npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_forward_single_matches_batch():
    model = nn.init_model((6, 8, 3), ("relu", "softmax"), 1, _unit_stats(6))
    rng = np.random.default_rng(2)
    batch = rng.normal(size=(7, 6))
    stacked = nn.forward(model, batch)
    for i in range(7):
        # each row as a (1, F) batch; single-row and batched matmuls may
        # differ in the last ulp
        npt.assert_allclose(nn.forward(model, batch[i:i + 1])[0], stacked[i],
                            rtol=1e-13, atol=1e-16)


@pytest.mark.parametrize("sizes, hidden", [
    ((15, 10, 20, 4), "tanh"),
    ((27, 16, 32, 16, 2), "relu"),
])
@pytest.mark.parametrize("rows", [1, 7, 2048, 65536])
def test_forward_matches_batch_major_reference(sizes, hidden, rows):
    # the experiments' two architectures, against the allocating
    # batch-major pass kept in the oracle
    activations = (hidden,) * (len(sizes) - 2) + ("softmax",)
    model = nn.init_model(sizes, activations, rows, _unit_stats(sizes[0]))
    model = replace(model, biases=tuple(
        np.random.default_rng(rows).normal(scale=0.5, size=b.shape)
        for b in model.biases))
    x = np.random.default_rng(rows + 1).normal(scale=2.0,
                                               size=(rows, sizes[0]))
    got = nn.forward(model, x)
    assert got.shape == (rows, sizes[-1])
    npt.assert_allclose(got, oracle.forward_layers(model, x)[-1],
                        rtol=1e-13, atol=0.0)


def test_forward_validation():
    model = _zero_model((3, 2))
    with pytest.raises(ValidationError):
        nn.forward(model, np.zeros(4))
    for shape in [(3,), (2, 4), (1, 1, 3)]:
        # only an N x F batch is accepted, also a 1-D vector of width F
        with pytest.raises(ValidationError, match="N x 3 batch"):
            nn.forward(model, np.zeros(shape))
    broken = replace(model, weights=(np.full((3, 2), np.nan),))
    with pytest.raises(ComputeError):
        nn.forward(broken, np.zeros((1, 3)))


def test_loss_reference_values():
    uniform = np.full((6, 4), 0.25)
    labels = np.array([0, 1, 2, 3, 0, 1])
    npt.assert_allclose(nn.loss(uniform, labels), math.log(4.0), rtol=1e-15)

    perfect = np.eye(3)[np.array([2, 0, 1])]
    assert nn.loss(perfect, np.array([2, 0, 1])) == 0.0

    # a confident miss is clipped at the probability floor
    wrong = np.array([[1.0, 0.0, 0.0]])
    npt.assert_allclose(nn.loss(wrong, np.array([1])),
                        -math.log(nn.PROB_FLOOR), rtol=1e-15)


def test_accuracy():
    probs = np.array([[0.7, 0.3], [0.2, 0.8], [0.6, 0.4], [0.1, 0.9]])
    assert nn.accuracy(probs, np.array([0, 1, 1, 1])) == 0.75


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def _loss_with_bump(model, x, y, layer, kind, index, bump):
    params = list(getattr(model, kind))
    bumped = params[layer].copy()
    bumped[index] += bump
    params[layer] = bumped
    model = replace(model, **{kind: tuple(params)})
    return nn.loss(nn.forward(model, x), y)


def _check_gradients(model, x, y, n_checks, seed, h=1e-5, atol=1e-6):
    grads_w, grads_b = oracle.backward(model, x, y)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_checks):
        layer = int(rng.integers(0, len(model.weights)))
        if rng.uniform() < 0.8:
            kind, grads = "weights", grads_w
            index = (int(rng.integers(0, model.weights[layer].shape[0])),
                     int(rng.integers(0, model.weights[layer].shape[1])))
        else:
            kind, grads = "biases", grads_b
            index = (int(rng.integers(0, model.biases[layer].shape[0])),)
        up = _loss_with_bump(model, x, y, layer, kind, index, h)
        down = _loss_with_bump(model, x, y, layer, kind, index, -h)
        numeric = (up - down) / (2.0 * h)
        worst = max(worst, abs(numeric - grads[layer][index]))
    assert worst < atol


def test_gradients_match_finite_differences_tanh():
    model = nn.init_model((15, 10, 20, 4), ("tanh", "tanh", "softmax"), 11,
                          _unit_stats(15))
    rng = np.random.default_rng(12)
    x = rng.normal(size=(8, 15))
    y = rng.integers(0, 4, 8)
    _check_gradients(model, x, y, n_checks=60, seed=13)


def test_gradients_match_finite_differences_relu():
    model = nn.init_model((9, 16, 32, 16, 2), ("relu", "relu", "relu",
                                               "softmax"), 21, _unit_stats(9))
    rng = np.random.default_rng(22)
    x = rng.normal(size=(8, 9))
    y = rng.integers(0, 2, 8)
    _check_gradients(model, x, y, n_checks=60, seed=23)


def test_softmax_bias_gradient_closed_form():
    # with no hidden layer the output bias gradient is mean(P - Y)
    model = nn.init_model((5, 3), ("softmax",), 4, _unit_stats(5))
    rng = np.random.default_rng(5)
    x = rng.normal(size=(32, 5))
    y = rng.integers(0, 3, 32)
    probs = nn.forward(model, x)
    expect = probs.copy()
    expect[np.arange(32), y] -= 1.0
    _, grads_b = oracle.backward(model, x, y)
    npt.assert_allclose(grads_b[0], expect.mean(axis=0), rtol=1e-12)


def test_gradient_batch_duplication_invariance():
    # the mean-loss gradient must not change when the batch is doubled
    model = nn.init_model((6, 8, 3), ("tanh", "softmax"), 9, _unit_stats(6))
    rng = np.random.default_rng(10)
    x = rng.normal(size=(10, 6))
    y = rng.integers(0, 3, 10)
    gw1, gb1 = oracle.backward(model, x, y)
    gw2, gb2 = oracle.backward(model, np.concatenate([x, x]),
                           np.concatenate([y, y]))
    for a, b in zip(gw1 + gb1, gw2 + gb2):
        npt.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


def test_backward_validation():
    model = _zero_model((3, 2))
    with pytest.raises(ValidationError):
        oracle.backward(model, np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(ValidationError):
        oracle.backward(model, np.zeros(3), np.zeros(1, dtype=int))


# ---------------------------------------------------------------------------
# schedules and early stopping
# ---------------------------------------------------------------------------

def test_lr_staircase():
    config = nn.TrainConfig(optimizer="sgd-decay", learning_rate=1e-7,
                            decay_step=1000, decay_rate=0.9, epochs=1)
    assert nn.lr_at(config, 0) == 1e-7
    assert nn.lr_at(config, 999) == 1e-7
    npt.assert_allclose(nn.lr_at(config, 1000), 9e-8, rtol=1e-15)
    npt.assert_allclose(nn.lr_at(config, 2500), 8.1e-8, rtol=1e-15)
    with pytest.raises(ValidationError):
        nn.lr_at(config, -1)


def test_lr_constant_for_adam():
    config = nn.TrainConfig(optimizer="adam", learning_rate=1e-5, epochs=1)
    assert nn.lr_at(config, 0) == nn.lr_at(config, 10 ** 6) == 1e-5


def test_adam_first_step_magnitude():
    # bias-corrected adam moves every parameter by ~lr on the first step
    ds = _blob_dataset(16, [(-2.0, 0.0), (2.0, 0.5)], 0.5, seed=1)
    model = nn.init_model((2, 4, 2), ("tanh", "softmax"), 2, _unit_stats(2))
    config = nn.TrainConfig(optimizer="adam", learning_rate=1e-3,
                            batch_size=32, epochs=1, max_steps=1)
    trained, _ = nn.train(model, ds, ds, config)
    for before, after in zip(model.weights, trained.weights):
        delta = np.abs(after - before)
        assert delta.max() <= 1e-3 * 1.001
        assert delta.max() >= 1e-3 * 0.9


def test_train_config_validation():
    with pytest.raises(ValidationError):
        nn.TrainConfig(optimizer="momentum")
    with pytest.raises(ValidationError):
        nn.TrainConfig(learning_rate=0.0)
    with pytest.raises(ValidationError):
        nn.TrainConfig(batch_size=0)
    with pytest.raises(ValidationError):
        nn.TrainConfig(optimizer="sgd-decay", decay_rate=0.0)
    with pytest.raises(ValidationError):
        nn.TrainConfig(early_stopping=(0, 3))
    for rate in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="learning_rate"):
            nn.TrainConfig(learning_rate=rate)
    for key in ("epochs", "max_steps", "trace_every", "seed"):
        with pytest.raises(ValidationError, match=key):
            nn.TrainConfig(**{key: -1})
    # early stopping sets the check interval, which trace_every would too
    with pytest.raises(ValidationError,
                       match="trace_every and early_stopping"):
        nn.TrainConfig(early_stopping=(100, 3), trace_every=7)


def test_early_stopping_consecutive_increases():
    stopper = nn.EarlyStopping(1, 3)
    assert not stopper.update(1, 0.50, "snap-1")
    assert not stopper.update(2, 0.52, "snap-2")
    assert not stopper.update(3, 0.55, "snap-3")
    assert stopper.update(4, 0.58, "snap-4")
    assert stopper.snapshot == "snap-1"
    assert stopper.snapshot_step == 1


def test_early_stopping_reset_on_improvement():
    stopper = nn.EarlyStopping(1, 2)
    seen = [0.50, 0.52, 0.49, 0.52, 0.53]
    halts = [stopper.update(i, v, f"s{i}") for i, v in enumerate(seen)]
    assert halts == [False, False, False, False, True]
    assert stopper.snapshot == "s2"


def test_early_stopping_equal_loss_is_no_increase():
    stopper = nn.EarlyStopping(1, 1)
    assert not stopper.update(0, 0.5, "a")
    assert not stopper.update(1, 0.5, "b")
    assert stopper.snapshot == "b"
    assert stopper.update(2, 0.6, "c")
    assert stopper.snapshot == "b"


# ---------------------------------------------------------------------------
# training runs
# ---------------------------------------------------------------------------

def test_training_separates_blobs():
    train_ds = _blob_dataset(200, [(-1.5, -1.5), (1.5, 1.5)], 0.4, seed=30)
    val_ds = _blob_dataset(50, [(-1.5, -1.5), (1.5, 1.5)], 0.4, seed=31)
    model = nn.init_model((2, 16, 32, 16, 2),
                          ("relu", "relu", "relu", "softmax"), 32,
                          _unit_stats(2))
    config = nn.TrainConfig(optimizer="sgd-decay", learning_rate=0.05,
                            decay_step=1000, decay_rate=0.9, batch_size=64,
                            epochs=120, seed=33)
    trained, trace = nn.train(model, train_ds, val_ds, config)
    _, acc = nn.evaluate(trained, val_ds.vectors, val_ds.labels)
    assert acc >= 0.99
    assert trace.train_loss[-1] < trace.train_loss[0]
    assert trace.stop_reason == "epoch-budget"


def test_tanh_architecture_also_learns():
    train_ds = _blob_dataset(150, [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.5)],
                             0.25, seed=40)
    val_ds = _blob_dataset(40, [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.5)],
                           0.25, seed=41)
    model = nn.init_model((2, 10, 20, 3), ("tanh", "tanh", "softmax"), 42,
                          _unit_stats(2))
    config = nn.TrainConfig(optimizer="adam", learning_rate=3e-3,
                            batch_size=64, epochs=120, seed=43)
    trained, _ = nn.train(model, train_ds, val_ds, config)
    _, acc = nn.evaluate(trained, val_ds.vectors, val_ds.labels)
    assert acc >= 0.99
    preds = nn.forward(trained, val_ds.vectors).argmax(axis=1)
    assert np.unique(preds).size == 3      # no collapsed constant solution


def test_training_is_deterministic():
    ds = _blob_dataset(60, [(-1.0, 0.0), (1.0, 0.0)], 0.6, seed=50)
    model = nn.init_model((2, 8, 2), ("tanh", "softmax"), 51, _unit_stats(2))
    config = nn.TrainConfig(optimizer="adam", learning_rate=1e-3,
                            batch_size=16, epochs=10, seed=52)
    m1, t1 = nn.train(model, ds, ds, config)
    m2, t2 = nn.train(model, ds, ds, config)
    for a, b in zip(m1.weights, m2.weights):
        npt.assert_array_equal(a, b)
    assert t1.val_loss == t2.val_loss


def test_train_does_not_mutate_input_model():
    ds = _blob_dataset(40, [(-1.0, 0.0), (1.0, 0.0)], 0.5, seed=60)
    model = nn.init_model((2, 6, 2), ("relu", "softmax"), 61, _unit_stats(2))
    frozen = [w.copy() for w in model.weights]
    nn.train(model, ds, ds, nn.TrainConfig(optimizer="adam",
                                           learning_rate=1e-3,
                                           batch_size=16, epochs=3))
    for a, b in zip(model.weights, frozen):
        npt.assert_array_equal(a, b)


def test_early_stopping_restores_snapshot():
    # overlapping blobs with a hot learning rate force val-loss churn
    train_ds = _blob_dataset(120, [(-0.3, 0.0), (0.3, 0.0)], 1.0, seed=70)
    val_ds = _blob_dataset(60, [(-0.3, 0.0), (0.3, 0.0)], 1.0, seed=71)
    model = nn.init_model((2, 12, 2), ("tanh", "softmax"), 72, _unit_stats(2))
    config = nn.TrainConfig(optimizer="adam", learning_rate=0.05,
                            batch_size=16, epochs=400,
                            early_stopping=(4, 2), seed=73)
    trained, trace = nn.train(model, train_ds, val_ds, config)
    assert trace.stop_reason == "early-stopping"
    assert trace.restored_step is not None
    assert trace.restored_step < trace.steps[-1]

    final_loss, final_acc = nn.evaluate(trained, val_ds.vectors,
                                        val_ds.labels)
    at = trace.steps.index(trace.restored_step)
    npt.assert_allclose(final_loss, trace.val_loss[at], rtol=1e-12)
    assert final_loss <= trace.val_loss[-1]
    # the reported accuracy is the saved weights', not the last check's
    assert trace.saved_val_acc == trace.val_acc[at] == final_acc


def test_trace_stop_line_names_the_restored_step(tmp_path):
    trace = nn.TrainTrace()
    for step, v_acc in ((10, 0.5), (20, 0.75), (30, 0.7)):
        trace.record(step, 0, 1.0, 1.0, 0.5, v_acc)
    trace.stop_reason = "early-stopping"
    assert trace.saved_val_acc == 0.7
    trace.restored_step = 20
    assert trace.saved_val_acc == 0.75
    path = tmp_path / "trace.csv"
    nn.write_trace(trace, str(path))
    lines = path.read_text().splitlines()
    assert lines[-1] == "# stop: early-stopping, restored step 20"


def _reference_backward(model, x, labels):
    """Batch-major backward pass, kept apart from the step code it checks."""
    acts = oracle.forward_layers(model, x)
    n = x.shape[0]
    delta = acts[-1].copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.weights)
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ model.weights[layer].T
            a = acts[layer]
            if model.activations[layer - 1] == "relu":
                delta = delta * (a > 0.0)
            else:
                delta = delta * (1.0 - a * a)
    return grads_w, grads_b


def _reference_train(model, train_ds, val_ds, config):
    """Epoch-shuffled mini-batches with per-array Adam or SGD updates.

    Returns (weights, biases, restored step or None).
    """
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    params = weights + biases
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    stopper = (nn.EarlyStopping(*config.early_stopping)
               if config.early_stopping else None)
    rng = np.random.default_rng(config.seed)
    n, size = train_ds.size, config.batch_size
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, size):
            idx = order[lo:lo + size]
            current = replace(model, weights=tuple(weights),
                              biases=tuple(biases))
            grads_w, grads_b = _reference_backward(
                current, train_ds.vectors[idx], train_ds.labels[idx])
            t = step + 1
            for param, grad, (m1, v2) in zip(params, grads_w + grads_b,
                                             moments):
                if config.optimizer == "adam":
                    m1 *= nn.ADAM_BETA1
                    m1 += (1.0 - nn.ADAM_BETA1) * grad
                    v2 *= nn.ADAM_BETA2
                    v2 += (1.0 - nn.ADAM_BETA2) * grad * grad
                    param -= (config.learning_rate
                              * (m1 / (1.0 - nn.ADAM_BETA1 ** t))
                              / (np.sqrt(v2 / (1.0 - nn.ADAM_BETA2 ** t))
                                 + nn.ADAM_EPS))
                else:
                    param -= nn.lr_at(config, step) * grad
            step += 1
            if stopper is not None and step % stopper.checks_apart == 0:
                v_loss, _ = nn.evaluate(current, val_ds.vectors,
                                        val_ds.labels)
                if stopper.update(step, v_loss, [p.copy() for p in params]):
                    for param, saved in zip(params, stopper.snapshot):
                        param[...] = saved
                    return weights, biases, stopper.snapshot_step
    return weights, biases, None


@pytest.mark.parametrize("hidden, optimizer, rate, epochs, early", [
    ("tanh", "adam", 1e-2, 3, None),
    ("relu", "sgd-decay", 0.05, 3, None),
    ("tanh", "adam", 0.05, 60, (8, 3)),
])
def test_train_matches_batch_major_reference(hidden, optimizer, rate, epochs,
                                             early):
    # 1000 rows at batch 64 leave a 40-row batch at the end of each epoch
    centers = [(0.0, 0.0, 0.0, 0.0, 0.0), (0.6, 0.0, 0.3, 0.0, 0.0),
               (0.0, 0.6, 0.0, 0.3, 0.0), (0.3, 0.3, 0.0, 0.0, 0.6)]
    train_ds = _blob_dataset(250, centers, 0.6, seed=100)
    val_ds = _blob_dataset(40, centers, 0.6, seed=101)
    assert train_ds.size == 1000
    model = nn.init_model((5, 12, 8, 4), (hidden, hidden, "softmax"), 102,
                          _unit_stats(5))
    config = nn.TrainConfig(optimizer=optimizer, learning_rate=rate,
                            decay_step=10, decay_rate=0.9, batch_size=64,
                            epochs=epochs, early_stopping=early, seed=103)
    trained, trace = nn.train(model, train_ds, val_ds, config)
    weights, biases, restored = _reference_train(model, train_ds, val_ds,
                                                 config)
    assert trace.restored_step == restored
    if early is not None:
        # the restored weights have seen short batches, and later steps
        # have moved the live buffer away from the snapshot
        assert trace.stop_reason == "early-stopping"
        assert 16 < restored < trace.steps[-1]
    for got, want in zip(trained.weights + trained.biases, weights + biases):
        npt.assert_allclose(got, want, rtol=1e-9, atol=0.0)


def test_train_budget_validation():
    ds = _blob_dataset(20, [(-1.0, 0.0), (1.0, 0.0)], 0.5, seed=80)
    model = nn.init_model((2, 4, 2), ("tanh", "softmax"), 81, _unit_stats(2))
    with pytest.raises(ValidationError):
        nn.train(model, ds, ds, nn.TrainConfig(epochs=0, max_steps=0))
    wrong = nn.init_model((3, 4, 2), ("tanh", "softmax"), 82, _unit_stats(3))
    with pytest.raises(ValidationError):
        nn.train(wrong, ds, ds, nn.TrainConfig(epochs=1))
    narrow = nn.init_model((2, 4, 1), ("tanh", "softmax"), 83, _unit_stats(2))
    with pytest.raises(ValidationError):
        nn.train(narrow, ds, ds, nn.TrainConfig(epochs=1))


# 128 rows at batch 16 are 8 steps per epoch; the step budget runs out
# first, also inside the last epoch the epoch budget allows
@pytest.mark.parametrize("epochs, max_steps", [(100, 5), (1, 3), (2, 13)])
def test_max_steps_cuts_epoch_short(epochs, max_steps):
    ds = _blob_dataset(64, [(-1.0, 0.0), (1.0, 0.0)], 0.5, seed=90)
    model = nn.init_model((2, 4, 2), ("tanh", "softmax"), 91, _unit_stats(2))
    config = nn.TrainConfig(optimizer="adam", learning_rate=1e-3,
                            batch_size=16, epochs=epochs, max_steps=max_steps)
    _, trace = nn.train(model, ds, ds, config)
    assert trace.stop_reason == "step-budget"
    assert trace.steps[-1] == max_steps


# 160 rows at batch 16 are 10 steps per epoch: the check after step k
# falls in epoch (k - 1) // 10, counted from 0, the closing check too
@pytest.mark.parametrize("epochs, max_steps, trace_every, want", [
    (3, 0, 0, [(10, 0), (20, 1), (30, 2)]),
    (0, 25, 0, [(10, 0), (20, 1), (25, 2)]),
    (0, 25, 7, [(7, 0), (14, 1), (21, 2), (25, 2)]),
    (0, 1, 0, [(1, 0)])])
def test_trace_epochs_count_from_zero(epochs, max_steps, trace_every, want):
    ds = _blob_dataset(80, [(-1.0, 0.0), (1.0, 0.0)], 0.5, seed=92)
    model = nn.init_model((2, 4, 2), ("tanh", "softmax"), 93, _unit_stats(2))
    config = nn.TrainConfig(learning_rate=1e-3, batch_size=16, epochs=epochs,
                            max_steps=max_steps, trace_every=trace_every)
    _, trace = nn.train(model, ds, ds, config)
    assert list(zip(trace.steps, trace.epochs)) == want


def test_param_count():
    model = nn.init_model((15, 10, 20, 4), ("tanh", "tanh", "softmax"), 0,
                          _unit_stats(15))
    assert oracle.param_count(model) == 464
    small = nn.init_model((2, 3), ("softmax",), 0, _unit_stats(2))
    assert oracle.param_count(small) == 9


def test_trace_record_guards_step_order():
    trace = nn.TrainTrace()
    assert trace.record(5, 0, 1.0, 1.0, 0.5, 0.5)
    assert not trace.record(5, 0, 2.0, 2.0, 0.1, 0.1)
    assert not trace.record(4, 0, 2.0, 2.0, 0.1, 0.1)
    assert trace.steps == [5]


# ---------------------------------------------------------------------------
# prediction maps
# ---------------------------------------------------------------------------

def _feature_image(values, valid=None):
    if valid is None:
        valid = np.ones(values.shape[:2], dtype=bool)
    degree = values.shape[2] // 3 - 1
    return tsr.FeatureImage(degree, tsr.PACK_PADDED, values, valid)


def test_predict_map_uniform_model_breaks_ties_low():
    rng = np.random.default_rng(7)
    image = _feature_image(rng.normal(size=(4, 5, 6)))
    stats = features.ScalingStats(np.zeros(6), np.ones(6))
    model = replace(_zero_model((6, 3)), stats=stats)
    label_map = nn.predict_map(model, image)
    npt.assert_array_equal(label_map.labels, 0)
    assert label_map.valid.all()


def test_predict_map_propagates_invalid_pixels():
    rng = np.random.default_rng(8)
    valid = np.ones((4, 5), dtype=bool)
    valid[2, 3] = False
    valid[0, 0] = False
    image = _feature_image(rng.normal(size=(4, 5, 6)), valid)
    stats = features.ScalingStats(np.zeros(6), np.ones(6))
    model = nn.init_model((6, 8, 3), ("tanh", "softmax"), 9, stats)
    label_map = nn.predict_map(model, image)
    assert label_map.labels[2, 3] == nn.INVALID_LABEL
    assert label_map.labels[0, 0] == nn.INVALID_LABEL
    assert not label_map.valid[2, 3]
    assert label_map.valid[1, 1]
    assert label_map.labels[label_map.valid].max() < 3


def test_predict_map_scaling_equivariance():
    # doubling features and scaling stats together changes nothing
    rng = np.random.default_rng(10)
    values = rng.normal(size=(6, 7, 6))
    image = _feature_image(values)
    doubled = _feature_image(values * 2.0)
    stats = features.ScalingStats(np.full(6, 0.5), np.full(6, 2.0))
    stats2 = features.ScalingStats(np.full(6, 1.0), np.full(6, 4.0))
    model = nn.init_model((6, 8, 3), ("tanh", "softmax"), 11, stats)
    a = nn.predict_map(model, image)
    b = nn.predict_map(replace(model, stats=stats2), doubled)
    npt.assert_array_equal(a.labels, b.labels)


def test_predict_map_uses_model_stats():
    rng = np.random.default_rng(12)
    image = _feature_image(rng.normal(size=(3, 3, 6)))
    stats = features.ScalingStats(rng.normal(size=6), rng.uniform(0.5, 2, 6))
    model = nn.init_model((6, 4, 2), ("tanh", "softmax"), 13, stats)
    label_map = nn.predict_map(model, image)
    flat = image.values.reshape(-1, 6)
    probs = nn.forward(model, (flat - stats.mean) / stats.std)
    npt.assert_array_equal(label_map.labels.reshape(-1), probs.argmax(axis=1))


def test_predict_matches_predict_map_at_provenance():
    rng = np.random.default_rng(14)
    valid = rng.uniform(size=(7, 9)) > 0.2
    image = _feature_image(rng.normal(size=(7, 9, 6)), valid)
    labels = rng.integers(0, 3, size=(7, 9))
    ds = features.assemble(image, LabelMask(labels,
                                            np.ones((7, 9), dtype=bool)))
    model = nn.init_model((6, 8, 3), ("tanh", "softmax"), 15,
                          features.fit_scaler(ds))
    # assemble's rows follow np.nonzero of the usable pixels
    rows, cols = np.nonzero(valid)
    npt.assert_array_equal(nn.predict(model, ds.vectors),
                           nn.predict_map(model, image).labels[rows, cols])
    empty = _feature_image(image.values, np.zeros((7, 9), dtype=bool))
    assert not nn.predict_map(model, empty).valid.any()


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def test_model_round_trip(tmp_path):
    stats = features.ScalingStats(np.arange(5.0), np.arange(1.0, 6.0))
    model = nn.init_model((5, 10, 20, 4), ("tanh", "tanh", "softmax"), 14,
                          stats)
    path = tmp_path / "model.txt"
    nn.save_model(model, str(path))
    back = nn.load_model(str(path))
    assert back.layer_sizes == model.layer_sizes
    assert back.activations == model.activations
    npt.assert_array_equal(back.stats.mean, stats.mean)
    npt.assert_array_equal(back.stats.std, stats.std)
    rng = np.random.default_rng(15)
    x = rng.normal(size=(40, 5))
    npt.assert_array_equal(nn.forward(back, x), nn.forward(model, x))
    # the file a loaded model saves is the file it was loaded from
    again = tmp_path / "again.txt"
    nn.save_model(back, str(again))
    assert again.read_bytes() == path.read_bytes()
    assert path.read_text().splitlines()[3] == "scaling = 1"


def test_load_model_version_error(tmp_path):
    model = nn.init_model((3, 4, 2), ("relu", "softmax"), 18, _unit_stats(3))
    path = tmp_path / "model.txt"
    nn.save_model(model, str(path))
    lines = path.read_text().splitlines(keepends=True)
    future = tmp_path / "future.txt"
    future.write_text("thermoseg-model v99\n" + "".join(lines[1:]))
    with pytest.raises(ValidationError):
        nn.load_model(str(future))


def test_load_model_corrupt_files(tmp_path):
    model = nn.init_model((3, 4, 2), ("relu", "softmax"), 19, _unit_stats(3))
    path = tmp_path / "model.txt"
    nn.save_model(model, str(path))
    lines = path.read_text().splitlines(keepends=True)

    truncated = tmp_path / "trunc.txt"
    truncated.write_text("".join(lines[:-3]))
    with pytest.raises(ValidationError):
        nn.load_model(str(truncated))

    # each marker line is checked where the layer sizes put it
    assert lines[10] == "bias\n" and lines[-1] == "end\n"
    for index, marker in ((10, "bias"), (len(lines) - 1, "end")):
        moved = tmp_path / "moved.txt"
        moved.write_text("".join(lines[:index] + ["x\n"] + lines[index + 1:]))
        with pytest.raises(ValidationError,
                           match=f"moved.txt:{index + 1}: expected '{marker}'"):
            nn.load_model(str(moved))
    trailing = tmp_path / "trailing.txt"
    trailing.write_text("".join(lines) + "1,2\n")
    with pytest.raises(ValidationError,
                       match=f"trailing.txt:{len(lines) + 1}: a line after"):
        nn.load_model(str(trailing))
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("".join(lines[:7] + ["1,2\n"] + lines[8:]))
    with pytest.raises(ValidationError, match="ragged.txt:8: "):
        nn.load_model(str(ragged))

    not_model = tmp_path / "не.txt"
    not_model.write_text("something\n")
    with pytest.raises(ValidationError):
        nn.load_model(str(not_model))

    with pytest.raises(FileNotFoundError, match="missing.txt"):
        nn.load_model(str(tmp_path / "missing.txt"))


def test_model_validation():
    with pytest.raises(ValidationError):
        _zero_model((3, 4, 2), ("softmax", "softmax"))
    with pytest.raises(ValidationError):
        _zero_model((3, 4, 2), ("relu", "tanh"))
    with pytest.raises(ValidationError):
        nn.MlpModel((3, 2), ("softmax",), (np.zeros((2, 2)),),
                    (np.zeros(2),), _unit_stats(3))


def test_write_trace(tmp_path):
    trace = nn.TrainTrace()
    trace.record(10, 0, 1.5, 1.6, 0.4, 0.35)
    trace.record(20, 1, 1.2, 1.3, 0.6, 0.55)
    trace.stop_reason = "epoch-budget"
    path = tmp_path / "trace.csv"
    nn.write_trace(trace, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "step,epoch,train_loss,val_loss,train_acc,val_acc"
    assert lines[1].startswith("10,0,1.5,1.6,")
    assert lines[-1] == "# stop: epoch-budget"


# ---------------------------------------------------------------------------
# the batch feeder
# ---------------------------------------------------------------------------

def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _feeder_data():
    # 1000 rows at batch 64 leave a 40-row batch at the end of each epoch
    centers = [(0.0, 0.0, 0.0, 0.0, 0.0), (0.6, 0.0, 0.3, 0.0, 0.0),
               (0.0, 0.6, 0.0, 0.3, 0.0), (0.3, 0.3, 0.0, 0.0, 0.6)]
    return (_blob_dataset(250, centers, 0.6, seed=100),
            _blob_dataset(40, centers, 0.6, seed=101),
            nn.init_model((5, 12, 8, 4), ("tanh", "tanh", "softmax"), 102,
                          _unit_stats(5)))


def _overrun(signum, frame):
    raise TimeoutError("the feeder test ran longer than 30 s")


@pytest.fixture
def forked(monkeypatch):
    """nn.train feeds its batches from a forked process; a test that hangs
    fails after 30 s instead of waiting."""
    monkeypatch.setattr(_kernels, "core_count", lambda: 2)
    assert not _kernels.feeds_inline()
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(30)
    yield monkeypatch
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("optimizer, early", [("adam", (8, 3)),
                                              ("sgd-decay", None)])
def test_feeder_process_and_inline_train_the_same_bits(forked, optimizer,
                                                       early):
    train_ds, val_ds, model = _feeder_data()
    config = nn.TrainConfig(optimizer=optimizer, learning_rate=0.05,
                            decay_step=10, decay_rate=0.9, batch_size=64,
                            epochs=60 if early else 3, early_stopping=early,
                            seed=103)
    runs = [nn.train(model, train_ds, val_ds, config)]
    _assert_no_child()
    # inline on one core, and inline where os.fork is missing
    forked.setattr(_kernels, "core_count", lambda: 1)
    runs.append(nn.train(model, train_ds, val_ds, config))
    forked.setattr(_kernels, "core_count", lambda: 2)
    forked.delattr(os, "fork")
    runs.append(nn.train(model, train_ds, val_ds, config))
    assert [t.feeder for _, t in runs] == ["process", "inline", "inline"]
    # the step loop's time spent getting batches, forked or inline
    assert all(0.0 < t.batch_wait <= t.seconds for _, t in runs)
    if early:
        assert runs[0][1].stop_reason == "early-stopping"
        assert 16 < runs[0][1].restored_step < runs[0][1].steps[-1]
    want_model, want = runs[0]
    for got_model, got in runs[1:]:
        for a, b in zip(got_model.weights + got_model.biases,
                        want_model.weights + want_model.biases):
            assert a.tobytes() == b.tobytes()
        assert (got.steps, got.train_loss, got.val_loss, got.val_acc,
                got.stop_reason, got.restored_step) == (
            want.steps, want.train_loss, want.val_loss, want.val_acc,
            want.stop_reason, want.restored_step)


def test_feeder_leaves_no_process(forked):
    train_ds, val_ds, model = _feeder_data()
    # a budget smaller than the ring: the feeder fills every step at once
    config = nn.TrainConfig(batch_size=64, max_steps=nn.FEED_SLOTS - 2)
    _, trace = nn.train(model, train_ds, val_ds, config)
    assert trace.feeder == "process"
    assert trace.steps[-1] == nn.FEED_SLOTS - 2
    _assert_no_child()
    # a non-finite loss raised at the first check, mid-loop
    bad = features.Dataset(val_ds.vectors.copy(), val_ds.labels, 4)
    bad.vectors[3, 1] = np.nan
    config = nn.TrainConfig(batch_size=64, epochs=5, trace_every=10)
    with pytest.raises(ComputeError, match="non-finite"):
        nn.train(model, train_ds, bad, config)
    _assert_no_child()


def test_dead_feeder_is_one_compute_error(forked):
    train_ds, val_ds, model = _feeder_data()
    fill = nn._Batches.fill

    def dies_at_step_7(self, k, slot):
        if k == 6:
            os.kill(os.getpid(), signal.SIGKILL)
        fill(self, k, slot)

    forked.setattr(nn._Batches, "fill", dies_at_step_7)
    with pytest.raises(ComputeError) as caught:
        nn.train(model, train_ds, val_ds,
                 nn.TrainConfig(batch_size=64, epochs=3))
    assert str(caught.value) == "the batch feeder process died before step 7"
    _assert_no_child()
