"""Independent oracles the tests check the implementation against.

Everything here is written from first principles (scalar loops, explicit
window enumeration, central finite differences) and deliberately shares no
code with the package internals it verifies. The exceptions are the
embedding trainers' references (``sgns_step_whole``, ``skipgram_whole``,
``cooc_unfused`` and ``subword_dense``): they keep each trainer's arithmetic
as plain whole-array numpy, with ``np.add.at`` for every scatter, and call
the package's pair builder, noise table, chunk schedule and n-gram hashing,
which have tests of their own.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def conv_relu_scalar(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop convolution: each window inner product computed alone.

    x: (C, L, k) channel stack, w: (C, n_filters, h*k), b: (n_filters,).
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.ndim == 2:
        x = x[None]
        w = w[None]
    n_channels, length, k = x.shape
    n_filters = w.shape[1]
    h = w.shape[2] // k
    out_len = length - h + 1
    out = np.zeros((out_len, n_filters))
    for j in range(out_len):
        for i in range(n_filters):
            acc = 0.0
            for c in range(n_channels):
                window = x[c, j : j + h, :].reshape(-1)
                acc += float(window @ w[c, i])
            out[j, i] = max(acc + float(b[i]), 0.0)
    return out


def conv_per_token(ids: np.ndarray, tables, conv_w: dict, conv_b: dict):
    """The per-token convolution lowering, kept as the bit-exact reference
    for ``model.forward``: every one of the B*d token rows is gathered from
    each channel's table (id-0 rows zeroed, whatever row 0 holds), the
    (B*d, C*k) word matrix multiplies each height's (C*k, h*n) filter bank,
    and word p's row-t response is added into window p+h-1-t in ascending t.

    ids: (B, d); tables: C arrays (V, k); conv_w[h]: (C, n, h*k). Returns
    the (B, C, d, k) embedded words and the post-ReLU feature maps by
    height, in the filters' dtype.
    """
    dtype = next(iter(conv_w.values())).dtype
    batch, d = ids.shape
    n_channels, k = len(tables), tables[0].shape[1]
    words = np.empty((batch, d, n_channels, k), dtype=dtype)
    for c, table in enumerate(tables):
        words[:, :, c] = table[ids]
    words[ids == 0] = 0.0
    x = words.reshape(batch * d, n_channels * k)
    fmaps = {}
    for h, w in conv_w.items():
        n = w.shape[1]
        bank = w.reshape(n_channels, n, h, k).transpose(0, 3, 2, 1).reshape(
            n_channels * k, h * n
        )
        y = (x @ bank).reshape(batch, d, h, n)
        pre = np.zeros((batch, d + h - 1, n), dtype=dtype)
        for t in range(h):
            pre[:, h - 1 - t : h - 1 - t + d] += y[:, :, t]
        pre += conv_b[h]
        fmaps[h] = np.maximum(pre, 0.0)
    return words.transpose(0, 2, 1, 3), fmaps


def embedding_grads_serial(trace, params, tables, trainable, labels) -> dict:
    """The embedding gradients of the trainable channels as one loop over
    ascending heights computes them, kept as the bit-exact reference for
    ``model.backward``: the input gradient over all C*k columns, one height
    at a time, summed into a zero matrix, then each trainable channel's
    columns scattered onto its table's rows in token order, pad row zeroed.

    tables: the C (V, k) channel tables; trainable: their flags.
    """
    dtype = params.dtype
    hyper = params.hyper
    batch, d = trace.ids.shape
    n_channels, k, n = len(tables), hyper.k, hyper.n_filters
    labels = np.asarray(labels)
    z = trace.logits.astype(np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    dlogits = e / e.sum(axis=-1, keepdims=True)
    dlogits[np.arange(batch), labels] -= 1.0
    dz = (dlogits / batch).astype(dtype) @ params.fc_w
    if trace.dropout_mask is not None:
        dz = dz * trace.dropout_mask
    dx = np.zeros((batch * d, n_channels * k), dtype=dtype)
    for i, h in enumerate(hyper.heights):
        dzh = dz[:, i * n : (i + 1) * n]
        dpre = (dzh[:, None, :] / dtype.type(d + h - 1)) * (trace.fmaps[h] > 0.0)
        dy = np.empty((batch, d, h, n), dtype=dtype)
        for t in range(h):  # word p sits in row t of window p+h-1-t
            dy[:, :, t] = dpre[:, h - 1 - t : h - 1 - t + d]
        bank = params.conv_w[h].reshape(n_channels, n, h, k).transpose(0, 3, 2, 1).reshape(
            n_channels * k, h * n
        )
        dx += dy.reshape(batch * d, h * n) @ bank.T
    grads = {}
    for c, table in enumerate(tables):
        if trainable[c]:
            g = np.zeros_like(table, dtype=dtype)
            np.add.at(g, trace.ids.reshape(-1), dx[:, c * k : (c + 1) * k])
            g[0] = 0.0
            grads[c] = g
    return grads


def avg_pool_scalar(fmap: np.ndarray) -> np.ndarray:
    fmap = np.asarray(fmap, dtype=np.float64)
    out = np.zeros(fmap.shape[1])
    for i in range(fmap.shape[1]):
        acc = 0.0
        for j in range(fmap.shape[0]):
            acc += fmap[j, i]
        out[i] = acc / fmap.shape[0]
    return out


def windows_covering_word(word: int, d: int, h: int) -> list[int]:
    """Indices of convolution windows whose receptive field holds a word.

    Derived purely from the padded-row arithmetic: with h-1 frame rows on
    each side, word p (0-based) sits at padded row p + h - 1 and window j
    spans padded rows j .. j+h-1.
    """
    padded_row = word + h - 1
    n_windows = d + h - 1
    return [j for j in range(n_windows) if j <= padded_row <= j + h - 1]


def coverage_counts(d: int, h: int) -> list[int]:
    return [len(windows_covering_word(p, d, h)) for p in range(d)]


def word_scores_brute(v: np.ndarray, h: int, d: int) -> np.ndarray:
    """Per-word mean of the score vector over exactly the covering windows."""
    out = np.zeros(d)
    for p in range(d):
        idx = windows_covering_word(p, d, h)
        out[p] = sum(float(v[j]) for j in idx) / len(idx)
    return out


def score_vector_loops(fmap: np.ndarray, weights: np.ndarray) -> np.ndarray:
    out = np.zeros(fmap.shape[0])
    for p in range(fmap.shape[0]):
        acc = 0.0
        for i in range(fmap.shape[1]):
            acc += float(fmap[p, i]) * float(weights[i])
        out[p] = acc
    return out


def numeric_gradient(
    loss_fn: Callable[[], float], array: np.ndarray, eps: float = 1e-3
) -> np.ndarray:
    """Central finite differences, perturbing the array in place."""
    flat = array.reshape(-1)
    grad = np.zeros(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = loss_fn()
        flat[i] = orig - eps
        down = loss_fn()
        flat[i] = orig
        grad[i] = (up - down) / (2.0 * eps)
    return grad.reshape(array.shape)


def relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """Elementwise |a - n| / max(|a| + |n|, 1e-8)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    return np.abs(a - n) / np.maximum(np.abs(a) + np.abs(n), 1e-8)


def min_preactivation_margin(ids, params, channels) -> float:
    """Smallest |pre-ReLU activation| across heights, computed from scratch.

    Finite differences are only trustworthy when no perturbation can cross
    a ReLU kink, so gradient checks require this margin to clear a few
    multiples of the step size.
    """
    hyper = params.hyper
    d, k = hyper.d, hyper.k
    padded = list(ids) + [0] * (d - len(ids))
    margin = np.inf
    for h in hyper.heights:
        frames = [np.zeros(k)] * (h - 1)
        rows_per_channel = []
        for ch in channels.channels:
            rows = [
                np.zeros(k) if t == 0 else np.asarray(ch.table[t], dtype=np.float64)
                for t in padded
            ]
            rows_per_channel.append(frames + rows + frames)
        n_windows = d + h - 1
        for j in range(n_windows):
            for i in range(hyper.n_filters):
                acc = float(params.conv_b[h][i])
                for c in range(hyper.n_channels):
                    window = np.concatenate(rows_per_channel[c][j : j + h])
                    acc += float(window @ np.asarray(params.conv_w[h][c, i], dtype=np.float64))
                margin = min(margin, abs(acc))
    return float(margin)


def context_pairs_loops(sentences, window: int) -> list[tuple[int, int]]:
    """Every (center, context) pair within +-window, one position at a time:
    sentences in order, centers in order, contexts left to right."""
    pairs = []
    for sent in sentences:
        n = len(sent)
        for t in range(n):
            for u in range(max(0, t - window), min(n, t + window + 1)):
                if u != t:
                    pairs.append((sent[t], sent[u]))
    return pairs


def cooc_loops(sentences, window: int) -> dict[tuple[int, int], int]:
    """Co-occurrence counts keyed by (min_id, max_id): each token paired with
    each of the next ``window`` tokens of its sentence, one count per event."""
    counts: dict[tuple[int, int], int] = {}
    for sent in sentences:
        n = len(sent)
        for t in range(n):
            for u in range(t + 1, min(n, t + window + 1)):
                a, b = sent[t], sent[u]
                key = (a, b) if a <= b else (b, a)
                counts[key] = counts.get(key, 0) + 1
    return counts


def subword_dense(
    sentences, id_to_token, k, window, ngram_min, ngram_max, bucket,
    negatives, epochs, lr, seed, chunk=1024,
):
    """The subword trainer with the whole (bucket, k) n-gram table, kept as
    the bit-exact reference for ``embed.subword.fit_subword``, which stores
    only the rows of the buckets the vocabulary hashes to: every bucket's
    row drawn in one ``uniform`` call and kept, and the CSR index holding
    bucket numbers. Each pair sums its center's n-gram vectors itself, and
    every update is one whole array, scattered by ``np.add.at``; the
    negative-sampling step is ``sgns_step_whole``.

    Returns a namespace with word_vecs, gram_vecs (bucket, k), w_out,
    epoch_losses, offsets, grams and ``table``: ``SGNSFit.table``'s float64
    table before its dtype cast.
    """
    from types import SimpleNamespace

    from wordcam.embed.skipgram import NoiseTable, context_pairs, sgns_chunks
    from wordcam.embed.subword import ngram_bucket, word_ngrams

    def gram_ids(word):
        return [ngram_bucket(g, bucket) for g in word_ngrams(word, ngram_min, ngram_max)]

    vocab_size = len(id_to_token)
    rng = np.random.default_rng(seed)
    word_vecs = rng.uniform(-0.5 / k, 0.5 / k, size=(vocab_size, k))
    word_vecs[0] = 0.0
    gram_vecs = rng.uniform(-0.5 / k, 0.5 / k, size=(bucket, k))
    w_out = np.zeros((vocab_size, k))
    per_word = [[]] + [gram_ids(tok) for tok in id_to_token[1:]]
    offsets = np.cumsum([0] + [len(g) for g in per_word])
    grams = np.asarray([g for gs in per_word for g in gs], dtype=np.int64)
    pairs = context_pairs(sentences, window)
    noise = NoiseTable(sentences, vocab_size)

    losses = [0.0] * epochs
    for epoch, centers, contexts, step_lr in sgns_chunks(pairs, epochs, lr, chunk):
        starts = offsets[centers]
        counts = offsets[centers + 1] - starts
        seg = np.repeat(np.arange(len(centers)), counts)
        first = np.cumsum(counts) - counts
        gram_rows = grams[starts[seg] + np.arange(len(seg)) - first[seg]]
        h = word_vecs[centers]
        np.add.at(h, seg, gram_vecs[gram_rows])
        grad_h, loss = sgns_step_whole(h, contexts, w_out, noise, rng, negatives, step_lr)
        np.add.at(word_vecs, centers, -step_lr * grad_h)
        np.add.at(gram_vecs, gram_rows, -step_lr * grad_h[seg])
        losses[epoch] += loss
    word_vecs[0] = 0.0

    table = np.zeros((vocab_size, k))
    for i in range(1, vocab_size):
        table[i] = gram_vecs[grams[offsets[i] : offsets[i + 1]]].sum(axis=0) + word_vecs[i]
    return SimpleNamespace(
        word_vecs=word_vecs, gram_vecs=gram_vecs, w_out=w_out,
        epoch_losses=[s / len(pairs) for s in losses], offsets=offsets,
        grams=grams, table=table,
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def sgns_step_whole(h, contexts, w_out, noise, rng, negatives, step_lr):
    """One negative-sampling step with each update built as one whole array,
    kept as the bit-exact reference for ``embed.skipgram.sgns_step``: the
    (n * negatives, k) negative-sample update is made in one expression and
    scattered onto ``w_out`` by ``np.add.at``. Returns (grad_h, loss)."""
    u_pos = w_out[contexts]
    negs = noise.sample(rng, (len(h), negatives))
    u_neg = w_out[negs]
    pos_score = np.einsum("nk,nk->n", h, u_pos)
    neg_score = np.einsum("nk,njk->nj", h, u_neg)
    live = negs != contexts[:, None]
    g_pos = _sigmoid(pos_score) - 1.0
    g_neg = _sigmoid(neg_score) * live
    loss = -(_log_sigmoid(pos_score).sum() + (_log_sigmoid(-neg_score) * live).sum())
    grad_h = g_pos[:, None] * u_pos + np.einsum("nj,njk->nk", g_neg, u_neg)
    np.add.at(w_out, contexts, -step_lr * g_pos[:, None] * h)
    np.add.at(
        w_out,
        negs.reshape(-1),
        (-step_lr * g_neg[..., None] * h[:, None, :]).reshape(-1, h.shape[1]),
    )
    return grad_h, loss


def skipgram_whole(sentences, vocab_size, k, window, negatives, epochs, lr, seed, chunk):
    """``embed.skipgram.fit_skipgram``'s chunk loop over ``sgns_step_whole``,
    kept as its bit-exact reference. Returns a namespace with w_in, w_out
    and epoch_losses."""
    from types import SimpleNamespace

    from wordcam.embed.skipgram import NoiseTable, context_pairs, sgns_chunks

    rng = np.random.default_rng(seed)
    w_in = rng.uniform(-0.5 / k, 0.5 / k, size=(vocab_size, k))
    w_in[0] = 0.0
    w_out = np.zeros((vocab_size, k))
    pairs = context_pairs(sentences, window)
    noise = NoiseTable(sentences, vocab_size)
    losses = [0.0] * epochs
    for epoch, centers, contexts, step_lr in sgns_chunks(pairs, epochs, lr, chunk):
        grad_v, loss = sgns_step_whole(
            w_in[centers], contexts, w_out, noise, rng, negatives, step_lr
        )
        np.add.at(w_in, centers, -step_lr * grad_v)
        losses[epoch] += loss
    w_in[0] = 0.0
    return SimpleNamespace(
        w_in=w_in, w_out=w_out, epoch_losses=[s / len(pairs) for s in losses]
    )


def cooc_unfused(cooc, vocab_size, k, epochs, seed, chunk):
    """The co-occurrence factorisation with every (n, k) value a fresh array
    and each row gathered where it is used, kept as the bit-exact reference
    for ``embed.cooccur.fit_cooc`` (whose chunk is its module's ``_CHUNK``):
    AdaGrad at step 0.05 on f(x) = min(1, (x / 100)^0.75). Returns a
    namespace with w, u, b, c and epoch_losses."""
    from types import SimpleNamespace

    x_max, alpha, step = 100.0, 0.75, 0.05
    rng = np.random.default_rng(seed)
    w = rng.uniform(-0.5 / k, 0.5 / k, size=(vocab_size, k))
    u = rng.uniform(-0.5 / k, 0.5 / k, size=(vocab_size, k))
    b = np.zeros(vocab_size)
    c = np.zeros(vocab_size)
    gw = np.ones_like(w)
    gu = np.ones_like(u)
    gb = np.ones_like(b)
    gc = np.ones_like(c)

    keys, counts = cooc
    mirrored = keys[:, 0] != keys[:, 1]
    keep = np.stack([np.ones_like(mirrored), mirrored], axis=1)
    rows, cols = np.stack([keys, keys[:, ::-1]], axis=1)[keep].T
    xs = np.repeat(counts, 1 + mirrored).astype(np.float64)
    logx = np.log(xs)
    weight = np.minimum(1.0, (xs / x_max) ** alpha)

    epoch_losses = []
    n = len(rows)
    for _ in range(epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, chunk):
            sel = order[start : start + chunk]
            i, j = rows[sel], cols[sel]
            f = weight[sel]
            diff = np.einsum("nk,nk->n", w[i], u[j]) + b[i] + c[j] - logx[sel]
            loss_sum += float((f * diff**2).sum())
            g = 2.0 * f * diff
            grad_wi = g[:, None] * u[j]
            grad_uj = g[:, None] * w[i]
            np.add.at(gw, i, grad_wi**2)
            np.add.at(gu, j, grad_uj**2)
            np.add.at(gb, i, g**2)
            np.add.at(gc, j, g**2)
            np.add.at(w, i, -step * grad_wi / np.sqrt(gw[i]))
            np.add.at(u, j, -step * grad_uj / np.sqrt(gu[j]))
            np.add.at(b, i, -step * g / np.sqrt(gb[i]))
            np.add.at(c, j, -step * g / np.sqrt(gc[j]))
        epoch_losses.append(loss_sum / n)
    for table in (w, u, b, c):
        table[0] = 0.0
    return SimpleNamespace(w=w, u=u, b=b, c=c, epoch_losses=epoch_losses)
