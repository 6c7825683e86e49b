import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tabverify import ensemble as ens
from tabverify.classify import CLASS_ORDER
from tabverify.corpus import Label

rng = np.random.default_rng(2024)


def random_examples(n, m, seed):
    r = np.random.default_rng(seed)
    feats = r.normal(size=(n, 3 * m))
    labels = [list(Label)[i] for i in r.integers(0, 3, size=n)]
    return [(feats[i], labels[i]) for i in range(n)]


def planted_separable(n=200, seed=5):
    """Features whose first block already contains the answer, well separated."""
    r = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        cls = i % 3
        x = r.normal(scale=0.05, size=6)
        x[cls] += 5.0
        examples.append((x, list(Label)[cls]))
    return examples


class TestAssembleFeatures:
    def test_concatenation_order(self):
        feats = ens.assemble_features({"b": (4, 5, 6), "a": (1, 2, 3)}, ("a", "b"))
        assert list(feats) == [1, 2, 3, 4, 5, 6]

    def test_missing_model_named(self):
        with pytest.raises(ValueError, match="^missing scores from model 'tapas_wsmlr'$"):
            ens.assemble_features({"a": (1, 2, 3)}, ("a", "tapas_wsmlr"))

    def test_single_model_identity(self):
        feats = ens.assemble_features({"a": (7, 8, 9)}, ("a",))
        assert list(feats) == [7, 8, 9]


class TestForward:
    def zero_layer(self, m=1):
        return ens.VoteLayer(tuple(f"m{i}" for i in range(m)),
                             np.zeros((3, 3 * m)), np.zeros(3))

    def test_uniform_at_zero(self):
        probs = ens.forward(self.zero_layer(), [5.0, -1.0, 2.0])
        assert np.allclose(probs, [1 / 3] * 3)

    def test_shift_invariance(self):
        layer = ens.VoteLayer(("m",), np.eye(3), np.zeros(3))
        p1 = ens.forward(layer, [1.0, 2.0, 3.0])
        p2 = ens.forward(layer, [101.0, 102.0, 103.0])
        assert np.allclose(p1, p2)

    def test_identity_block_hand_softmax(self):
        layer = ens.VoteLayer(("m",), np.eye(3), np.zeros(3))
        probs = ens.forward(layer, [10.0, 0.0, 0.0])
        expected = np.exp([10.0, 0, 0]) / np.exp([10.0, 0, 0]).sum()
        assert np.allclose(probs, expected)
        assert ens.predict(layer, [10.0, 0.0, 0.0]) == Label.ENTAILED

    def test_sums_to_one_positive(self):
        for _ in range(50):
            m = int(rng.integers(1, 5))
            layer = ens.VoteLayer(tuple(f"m{i}" for i in range(m)),
                                  rng.normal(size=(3, 3 * m)), rng.normal(size=3))
            probs = ens.forward(layer, rng.normal(size=3 * m) * 50)
            assert abs(probs.sum() - 1) < 1e-9
            assert (probs > 0).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"^feature length \(2,\) does not match layer "
                                             r"input size 3$"):
            ens.forward(self.zero_layer(), [1.0, 2.0])

    def test_permutation_equivariance(self):
        m = 3
        weights = rng.normal(size=(3, 3 * m))
        bias = rng.normal(size=3)
        feats = rng.normal(size=3 * m)
        layer = ens.VoteLayer(("a", "b", "c"), weights, bias)
        perm = [2, 0, 1]  # model block permutation
        col_perm = np.concatenate([np.arange(3 * p, 3 * p + 3) for p in perm])
        layer_p = ens.VoteLayer(("c", "a", "b"), weights[:, col_perm], bias)
        assert np.allclose(ens.forward(layer, feats),
                           ens.forward(layer_p, feats[col_perm]))


class TestPredict:
    def test_argmax(self):
        layer = ens.VoteLayer(("m",), np.eye(3) * 5, np.zeros(3))
        assert ens.predict(layer, [1.0, 0.0, 0.0]) == Label.ENTAILED
        assert ens.predict(layer, [0.0, 0.0, 1.0]) == Label.UNKNOWN

    def test_exact_tie_breaks_in_class_order(self):
        layer = ens.VoteLayer(("m",), np.zeros((3, 3)), np.zeros(3))
        assert ens.predict(layer, [1.0, 2.0, 3.0]) == Label.ENTAILED
        layer_ru = ens.VoteLayer(("m",), np.vstack([np.zeros(3), np.ones(3), np.ones(3)]), np.zeros(3))
        assert ens.predict(layer_ru, [1.0, 1.0, 1.0]) == Label.REFUTED


class TestTrain:
    def test_planted_separable_reaches_99pct(self):
        examples = planted_separable()
        layer, trace = ens.train(examples, ens.TrainConfig(), ("m0", "m1"))
        correct = sum(ens.predict(layer, x) == y for x, y in examples)
        assert correct / len(examples) >= 0.99

    def test_single_example_memorized(self):
        examples = [(np.array([0.3, -0.2, 0.1]), Label.REFUTED)]
        layer, _ = ens.train(examples, ens.TrainConfig(epochs=500))
        assert ens.predict(layer, examples[0][0]) == Label.REFUTED

    def test_loss_trace_non_increasing_at_small_lr(self):
        examples = random_examples(40, 2, seed=11)
        config = ens.TrainConfig(learning_rate=0.01, epochs=100)
        _, trace = ens.train(examples, config, ("a", "b"))
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + 1e-12

    def test_deterministic_bitwise(self):
        examples = random_examples(30, 2, seed=3)
        l1, t1 = ens.train(examples, ens.TrainConfig(), ("a", "b"))
        l2, t2 = ens.train(examples, ens.TrainConfig(), ("a", "b"))
        assert np.array_equal(l1.weights, l2.weights)
        assert np.array_equal(l1.bias, l2.bias)
        assert t1 == t2

    def test_empty_examples_rejected(self):
        with pytest.raises(ValueError, match="^no training examples$"):
            ens.train([], ens.TrainConfig())

    def test_feature_width_must_match_model_count(self):
        with pytest.raises(ValueError,
                           match=r"^feature matrix shape \(4, 6\) inconsistent with 1 models$"):
            ens.train(random_examples(4, 2, seed=1), model_names=("a",))

    def test_trace_length_matches_epochs(self):
        examples = random_examples(10, 1, seed=1)
        _, trace = ens.train(examples, ens.TrainConfig(epochs=17))
        assert len(trace) == 17

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="^learning_rate must be finite and > 0$"):
            ens.TrainConfig(learning_rate=0)
        with pytest.raises(ValueError, match="^epochs must be >= 1$"):
            ens.TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="^l2 must be finite and >= 0$"):
            ens.TrainConfig(l2=-1)
        for field, bound in (("learning_rate", "> 0"), ("l2", ">= 0")):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"^{field} must be finite and {bound}$"):
                    ens.TrainConfig(**{field: value})

    def test_divergence_raises_training_error(self):
        """A finite rate that overflows the weights is a ValueError, so the
        CLI reports it as bad input."""
        examples = random_examples(10, 1, seed=1)
        with pytest.raises(ValueError, match="^non-finite loss at epoch 1$"):
            ens.train(examples, ens.TrainConfig(learning_rate=1e308))

    def test_divergence_in_last_update_names_epoch(self):
        """The loss is finite before the one update that overflows the weights."""
        examples = [(np.array([1e4, -1e4, 2e4]), Label.ENTAILED)]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^non-finite layer parameters after epoch 0$"):
                ens.train(examples, ens.TrainConfig(learning_rate=1e307, epochs=1))


class TestGradientCheck:
    def numeric_grads(self, layer, examples, l2, step=1e-5):
        def loss(weights, bias):
            return ens._loss_and_grads(weights, bias, *ens._design(examples), l2)[0]

        grad_w = np.zeros_like(layer.weights)
        for idx in np.ndindex(layer.weights.shape):
            wp, wm = layer.weights.copy(), layer.weights.copy()
            wp[idx] += step
            wm[idx] -= step
            grad_w[idx] = (loss(wp, layer.bias) - loss(wm, layer.bias)) / (2 * step)
        grad_b = np.zeros_like(layer.bias)
        for i in range(layer.bias.size):
            bp, bm = layer.bias.copy(), layer.bias.copy()
            bp[i] += step
            bm[i] -= step
            grad_b[i] = (loss(layer.weights, bp) - loss(layer.weights, bm)) / (2 * step)
        return grad_w, grad_b

    def test_analytic_matches_central_differences(self):
        r = np.random.default_rng(7)
        for trial in range(20):
            m = int(r.integers(1, 7))
            names = tuple(f"m{i}" for i in range(m))
            layer = ens.VoteLayer(names, r.normal(size=(3, 3 * m)) * 0.5,
                                  r.normal(size=3) * 0.5)
            examples = random_examples(int(r.integers(2, 10)), m, seed=trial)
            l2 = float(r.choice([0.0, 1e-4, 1e-2]))
            _, gw, gb = ens._loss_and_grads(layer.weights, layer.bias,
                                            *ens._design(examples), l2)
            nw, nb = self.numeric_grads(layer, examples, l2)
            denom = max(np.abs(nw).max(), np.abs(nb).max(), 1e-8)
            assert np.abs(gw - nw).max() / denom < 1e-6
            assert np.abs(gb - nb).max() / denom < 1e-6


# Training written with numpy's axis reductions: the reference that the
# column-wise epoch of `ensemble` must reproduce bit for bit.
def ref_softmax(logits):
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def ref_design(examples):
    x = np.asarray([f for f, _ in examples], dtype=float)
    y = np.zeros((len(examples), ens.N_CLASSES))
    for i, (_, label) in enumerate(examples):
        y[i, CLASS_ORDER.index(label)] = 1.0
    return x, y


def ref_loss_and_grads(weights, bias, x, y_onehot, l2):
    n = x.shape[0]
    probs = ref_softmax(x @ weights.T + bias)
    ce = -np.mean(np.log(np.clip((probs * y_onehot).sum(axis=1), 1e-300, None)))
    loss = ce + l2 * float((weights ** 2).sum())
    delta = (probs - y_onehot) / n
    grad_w = delta.T @ x + 2 * l2 * weights
    grad_b = delta.sum(axis=0)
    return loss, grad_w, grad_b


def ref_train(examples, config, model_names):
    x, y = ref_design(examples)
    weights = np.zeros((ens.N_CLASSES, x.shape[1]))
    bias = np.zeros(ens.N_CLASSES)
    trace = []
    for epoch in range(config.epochs):
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            loss, grad_w, grad_b = ref_loss_and_grads(weights, bias, x, y, config.l2)
        if not np.isfinite(loss):
            raise ValueError(f"non-finite loss at epoch {epoch}")
        trace.append(loss)
        weights = weights - config.learning_rate * grad_w
        bias = bias - config.learning_rate * grad_b
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise ValueError(f"non-finite layer parameters after epoch {epoch}")
    return ens.VoteLayer(tuple(model_names), weights, bias), trace


def outcome(fit):
    """Bytes of the trained weights and bias and the hex of every trace
    value, or the divergence message."""
    try:
        layer, trace = fit()
    except ValueError as exc:
        return str(exc)
    return layer.weights.tobytes(), layer.bias.tobytes(), [float(t).hex() for t in trace]


@st.composite
def training_runs(draw):
    """Examples with ties, zeros and magnitudes up to 1e4, and a config.
    Rates past 1e3 are drawn too: below that no run of 60 epochs or fewer
    diverges, and divergence must fail at the same epoch."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 300))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = r.normal(size=(n, 3 * m)) * draw(st.sampled_from([1e-3, 1.0, 30.0, 1e4]))
    x[r.random(x.shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    tied = r.random(x.shape) < draw(st.sampled_from([0.0, 0.3]))
    x[tied] = r.choice(x.ravel(), size=int(tied.sum()))
    labels = [CLASS_ORDER[i] for i in r.integers(0, draw(st.integers(1, 3)), size=n)]
    config = ens.TrainConfig(
        learning_rate=draw(st.floats(1e-3, 1e3) | st.floats(1e3, 1e308)),
        epochs=draw(st.integers(1, 60)), l2=draw(st.sampled_from([0.0, 1e-4, 0.1])))
    return [(x[i], labels[i]) for i in range(n)], config, tuple(f"m{i}" for i in range(m))


class TestColumnwiseEpochOracle:
    @settings(max_examples=200, deadline=None)
    @given(training_runs())
    def test_same_bits_as_axis_reductions(self, run):
        examples, config, names = run
        with np.errstate(over="ignore", invalid="ignore"):  # the update may overflow
            expected = outcome(lambda: ref_train(examples, config, names))
            assert outcome(lambda: ens.train(examples, config, names)) == expected

    @settings(max_examples=100, deadline=None)
    @given(training_runs(), st.integers(0, 2**32 - 1))
    def test_loss_and_gradients_equal_reference(self, run, seed):
        examples, config, names = run
        r = np.random.default_rng(seed)
        layer = ens.VoteLayer(names, r.normal(size=(3, 3 * len(names))) * 3,
                              r.normal(size=3))
        want_loss, want_w, want_b = ref_loss_and_grads(
            layer.weights, layer.bias, *ref_design(examples), config.l2)
        got_loss, grad_w, grad_b = ens._loss_and_grads(
            layer.weights, layer.bias, *ens._design(examples), config.l2)
        assert float(got_loss).hex() == float(want_loss).hex()
        assert grad_w.tobytes() == want_w.tobytes()
        assert grad_b.tobytes() == want_b.tobytes()


@st.composite
def layers_and_features(draw):
    """A layer and a feature vector whose logits reach magnitudes of 1e4 and
    may tie: classes whose weight rows are equal get equal biases (an exact
    tie) or biases one ulp apart each (a near tie)."""
    m = draw(st.integers(1, 3))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.0, 1e-3, 1.0, 30.0, 1e4]))
    weights = r.normal(size=(3, 3 * m)) / (3 * m)
    bias = r.normal(size=3) * scale
    tied = draw(st.sampled_from([(), (0, 1), (0, 2), (1, 2), (0, 1, 2)]))
    near = draw(st.booleans())
    for prev, k in zip(tied, tied[1:]):
        weights[k] = weights[prev]
        bias[k] = np.nextafter(bias[prev], draw(st.sampled_from([-np.inf, np.inf]))) \
            if near else bias[prev]
    layer = ens.VoteLayer(tuple(f"m{i}" for i in range(m)), weights, bias)
    return layer, r.normal(size=3 * m) * scale


class TestSoftmaxOracle:
    @settings(max_examples=300, deadline=None)
    @given(layers_and_features())
    def test_forward_and_predict_equal_reference(self, case):
        """The epoch's column-wise softmax, run on one logit row, gives the
        bits of the axis-reduction softmax."""
        layer, x = case
        probs = ref_softmax(layer.weights @ x + layer.bias)
        assert ens.forward(layer, x).tobytes() == probs.tobytes()
        assert ens.predict(layer, x) == CLASS_ORDER[int(np.argmax(probs))]


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        layer = ens.VoteLayer(("a", "b"), rng.normal(size=(3, 6)), rng.normal(size=3))
        path = tmp_path / "layer.json"
        layer.save(path, ens.TrainConfig())
        loaded = ens.VoteLayer.load(path)
        assert loaded.model_names == layer.model_names
        assert np.array_equal(loaded.weights, layer.weights)
        assert np.array_equal(loaded.bias, layer.bias)


class TestMajorityVote:
    def test_plurality(self):
        scores = {"a": (3, 1, 0), "b": (2, 0, 1), "c": (0, 0, 5)}
        assert ens.majority_vote(scores) == Label.ENTAILED

    def test_tie_without_layer_uses_class_order(self):
        scores = {"a": (3, 1, 0), "b": (0, 5, 1)}
        assert ens.majority_vote(scores) == Label.ENTAILED

    def test_tie_with_layer_uses_forward(self):
        # layer strongly favors whatever model b says
        weights = np.zeros((3, 6))
        weights[:, 3:] = np.eye(3) * 10
        layer = ens.VoteLayer(("a", "b"), weights, np.zeros(3))
        scores = {"a": (3, 1, 0), "b": (0, 5, 1)}
        assert ens.majority_vote(scores, layer) == Label.REFUTED
