import numpy as np
import pytest

from wordcam.corpus import LabeledExample, Polarity
from wordcam.embed import InputMode, assemble, init_random
from wordcam.errors import ConfigError, DataError, DivergenceError
from wordcam.model import (
    ModelHyper,
    ModelParams,
    backward,
    forward,
    load_checkpoint,
    params_digest,
    save_checkpoint,
    trainable_arrays,
)
from wordcam.train import (
    EpochRecord,
    TrainConfig,
    batch_arrays,
    evaluate,
    history_csv,
    train_epochs,
)


def _example(ids, label):
    toks = tuple(f"t{i}" for i in ids)
    return LabeledExample(tuple(ids), label, toks)


def _separable_set(n_per_class=10, vocab_size=12, d=6, seed=0):
    """Label equals the presence of token 1."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_per_class):
        filler = rng.integers(2, vocab_size, size=d - 1).tolist()
        pos = filler.copy()
        pos.insert(int(rng.integers(0, d)), 1)
        out.append(_example(pos[:d], Polarity.POSITIVE))
        out.append(_example(filler + [int(rng.integers(2, vocab_size))],
                            Polarity.NEGATIVE))
    return out


def _setup(d=6, vocab_size=12, seed=0, heights=(2, 3), n_filters=4, k=8):
    hyper = ModelHyper(k=k, d=d, heights=heights, n_filters=n_filters, n_channels=1)
    config = assemble(InputMode.RAND, rand=init_random(vocab_size, k, seed=seed))
    return hyper, config


def test_lr_zero_leaves_parameters_unchanged():
    examples = _separable_set()
    hyper, config = _setup()
    cfg = TrainConfig(batch_size=8, epochs=3, lr=0.0, seed=4)
    result = train_epochs(examples, examples, config, hyper, cfg)
    fresh = ModelParams.init(hyper, seed=cfg.seed)
    assert params_digest(result.params) == params_digest(fresh)
    assert np.array_equal(result.channels[0].table, config.channels[0].table)


def test_separable_corpus_reaches_full_train_accuracy():
    examples = _separable_set(n_per_class=10)
    hyper, config = _setup()
    cfg = TrainConfig(
        batch_size=8, epochs=30, lr=1e-2, lam=1e-4, keep=0.9, seed=0,
    )
    result = train_epochs(examples, examples, config, hyper, cfg)
    report = evaluate(result.best_params, result.best_channels, examples)
    assert report.accuracy == 1.0


def test_history_deterministic_for_fixed_seed():
    examples = _separable_set()
    hyper, config = _setup()
    cfg = TrainConfig(batch_size=8, epochs=4, seed=7, lam=0.01)
    a = train_epochs(examples, examples, config, hyper, cfg)
    b = train_epochs(examples, examples, config, hyper, cfg)
    assert a.history == b.history
    assert params_digest(a.params) == params_digest(b.params)


def test_weight_decay_direction_shrinks_weights():
    # one step with zero data gradient moves every weight toward the origin
    hyper, config = _setup()
    params = ModelParams.init(hyper, seed=0)
    lam = 0.1
    arrays = dict(params.named_arrays())
    before_conv = float(np.linalg.norm(params.conv_w[2]))
    before_fc = float(np.linalg.norm(params.fc_w))
    grads = {
        name: lam * arr if name.startswith(("conv_w", "fc_w")) else np.zeros_like(arr)
        for name, arr in arrays.items()
    }
    for name, g in grads.items():  # one gradient-descent step
        arrays[name] -= 1e-2 * g
    assert float(np.linalg.norm(params.conv_w[2])) < before_conv
    assert float(np.linalg.norm(params.fc_w)) < before_fc


def test_small_gradient_steps_monotone_loss_on_fixed_batch():
    examples = _separable_set(n_per_class=2)[:4]
    hyper, config = _setup()
    params = ModelParams.init(hyper, seed=1, dtype=np.float64)
    channels = assemble(InputMode.RAND, rand=init_random(12, 8, seed=1,
                                                         dtype=np.float64))
    ids, lengths, labels = batch_arrays(examples, hyper.d)
    arrays = trainable_arrays(params, channels)
    losses = []
    for _ in range(50):
        trace = forward(ids, params, channels, mode="train",
                        rng=np.random.default_rng(0), keep=1.0, n_words=lengths)
        loss, grads = backward(trace, params, channels, labels, lam=0.01)
        losses.append(loss)
        for name, g in grads.items():  # a small step along -gradient
            arrays[name] -= 1e-3 * g
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises():
    examples = _separable_set()
    hyper, config = _setup()
    cfg = TrainConfig(batch_size=8, epochs=50, lr=1e25, seed=0)
    with pytest.raises(DivergenceError):
        train_epochs(examples, examples, config, hyper, cfg)


def test_empty_split_raises_and_zero_epochs_keep_the_initial_state():
    examples = _separable_set()
    hyper, config = _setup()
    cfg = TrainConfig(batch_size=8, epochs=0, seed=5)
    for train_set, test_set in (([], examples), (examples, [])):
        with pytest.raises(DataError):
            train_epochs(train_set, test_set, config, hyper, cfg)
    result = train_epochs(examples, examples, config, hyper, cfg)
    assert result.history == []
    assert params_digest(result.best_params) == params_digest(
        ModelParams.init(hyper, seed=cfg.seed)
    )
    assert np.isnan(result.best_accuracy)


def test_hyper_that_does_not_fit_the_channels_raises():
    # forward checks the model against its channels at the first batch
    examples = _separable_set()
    _, config = _setup(k=8)
    cfg = TrainConfig(batch_size=8, epochs=1, seed=0)
    for hyper in (ModelHyper(k=8, d=6, heights=(2, 3), n_filters=4, n_channels=2),
                  ModelHyper(k=4, d=6, heights=(2, 3), n_filters=4)):
        with pytest.raises(ConfigError):
            train_epochs(examples, examples, config, hyper, cfg)


def test_zero_epochs_with_a_hyper_that_does_not_fit_saves_nothing(tmp_path):
    # no batch runs at 0 epochs, so nothing checks the fit before the save;
    # save_checkpoint refuses what load_checkpoint would, before writing
    examples = _separable_set()
    _, config = _setup(k=8)
    cfg = TrainConfig(batch_size=8, epochs=0, seed=0)
    for i, hyper in enumerate((ModelHyper(k=8, d=6, heights=(2, 3), n_filters=4, n_channels=2),
                               ModelHyper(k=4, d=6, heights=(2, 3), n_filters=4))):
        result = train_epochs(examples, examples, config, hyper, cfg)
        path = tmp_path / f"{i}.ckpt"
        with pytest.raises(ConfigError, match="model expects"):
            save_checkpoint(path, result.best_params, result.best_channels, "hash")
        assert not path.exists()


def test_frozen_channel_untouched_by_training():
    examples = _separable_set(vocab_size=12)
    sg = init_random(12, 8, seed=9)
    # a channel accepts a -0.0 pad row as zero; training must keep its sign
    negative_pad = sg.copy()
    negative_pad[0] = -0.0
    hyper = ModelHyper(k=8, d=6, heights=(2, 3), n_filters=4, n_channels=2)
    cfg = TrainConfig(batch_size=8, epochs=3, seed=2, lam=0.01)
    for table in (sg, negative_pad):
        config = assemble(InputMode.TWO_CH, skipgram=table)
        before_frozen = config.channels[0].digest()
        before_trainable = config.channels[1].digest()
        result = train_epochs(examples, examples, config, hyper, cfg)
        for frozen in (result.channels[0], result.best_channels[0]):
            assert frozen.digest() == before_frozen
            assert np.array_equal(np.signbit(frozen.table[0]), np.signbit(table[0]))
        assert result.channels[1].digest() != before_trainable
        # the caller's config object is never mutated either
        assert config.channels[1].digest() == before_trainable


def test_evaluate_zero_model_predicts_negative_everywhere():
    examples = _separable_set(n_per_class=8)
    hyper, config = _setup()
    zero = ModelParams.zeros(hyper)
    report = evaluate(zero, config, examples)
    assert report.accuracy == 0.5  # ties break toward Negative, classes balanced
    assert report.confusion[:, 1].sum() == 0  # nothing predicted positive
    assert report.n_examples == len(examples)
    assert report.recall[0] == 1.0


def test_evaluate_permutation_invariant():
    examples = _separable_set()
    hyper, config = _setup()
    params = ModelParams.init(hyper, seed=3)
    a = evaluate(params, config, examples)
    rng = np.random.default_rng(0)
    shuffled = [examples[i] for i in rng.permutation(len(examples))]
    b = evaluate(params, config, shuffled)
    assert a.accuracy == b.accuracy
    assert np.array_equal(a.confusion, b.confusion)


def test_evaluate_empty_set():
    hyper, config = _setup()
    params = ModelParams.init(hyper, seed=0)
    with pytest.raises(DataError):
        evaluate(params, config, [])


def test_history_csv_format():
    rows = [EpochRecord(1, 0.5, 0.75), EpochRecord(2, 0.25, 0.875)]
    text = history_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,train_loss,test_acc"
    assert lines[1] == "1,0.5,0.75"
    assert lines[2] == "2,0.25,0.875"


def test_interrupted_training_leaves_loadable_checkpoint(tmp_path):
    examples = _separable_set()
    hyper, config = _setup()
    cfg = TrainConfig(batch_size=8, epochs=5, seed=1, lam=0.01)

    class Stop(RuntimeError):
        pass

    def hook(epoch, state):
        tmp = tmp_path / "last.ckpt.tmp"
        save_checkpoint(tmp, state.params, state.channels, "hash")
        tmp.replace(tmp_path / "last.ckpt")
        if epoch == 2:
            raise Stop()

    with pytest.raises(Stop):
        train_epochs(examples, examples, config, hyper, cfg, on_epoch_end=hook)
    params, channels, meta = load_checkpoint(tmp_path / "last.ckpt")
    assert params.hyper == hyper
    report = evaluate(params, channels, examples)
    assert 0.0 <= report.accuracy <= 1.0


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(keep=0.0)
    for bad in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError):
            TrainConfig(lr=bad)
        with pytest.raises(ConfigError):
            TrainConfig(lam=bad)
