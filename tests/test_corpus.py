import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordcam.corpus import (
    IMDB_SCHEME,
    PAD_ID,
    PAD_TOKEN,
    WATCHA_SCHEME,
    CorpusSplit,
    LabeledExample,
    Polarity,
    RawReview,
    TokenizedExample,
    Vocabulary,
    encode_example,
    label_from_rating,
    label_reviews,
    load_delimited,
    load_imdb_dir,
    load_prepared,
    prepare,
    save_prepared,
    split,
    tokenize,
)
from wordcam.errors import DataError


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------


def test_tokenize_plain_sentence():
    assert tokenize("This film is actually quite entertaining") == [
        "this", "film", "is", "actually", "quite", "entertaining",
    ]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("   \t\n ") == []


def strip_oracle(token: str) -> str:
    """Character-class reference: drop categories P* and Nd, fold Latin."""
    out = []
    for ch in token:
        cat = unicodedata.category(ch)
        if cat.startswith("P") or cat == "Nd":
            continue
        try:
            is_latin = unicodedata.name(ch).startswith("LATIN")
        except ValueError:
            is_latin = False
        out.append(ch.lower() if is_latin else ch)
    return "".join(out)


def test_tokenize_strips_punctuation_and_digits():
    text = "Rated 10/10!!"
    expected = [t for t in (strip_oracle(r) for r in text.split()) if t]
    assert expected == ["rated"]
    assert tokenize(text) == ["rated"]


@given(st.text(max_size=60))
def test_tokenize_matches_character_class_oracle(text):
    expected = [t for t in (strip_oracle(r) for r in text.split()) if t]
    assert tokenize(text) == expected


_BMP = [chr(cp) for cp in range(0x10000) if not 0xD800 <= cp <= 0xDFFF]


@pytest.mark.parametrize(
    "context", ["{c}", "a{c}b", "a {c} b", "{c}{c} x", "\t{c}\n", "İ{c}Σ"]
)
def test_tokenize_matches_oracle_for_every_bmp_character(context):
    """Every BMP code point (surrogates excepted) in one context. Random
    texts rarely reach the rarer whitespace (``\\x1c``-``\\x1f``, ``\\x85``,
    NBSP) or a character whose lowercase is two characters, such as ``İ``."""
    wrong = []
    for c in _BMP:
        text = context.format(c=c)
        expected = [t for t in (strip_oracle(r) for r in text.split()) if t]
        if tokenize(text) != expected:
            wrong.append(f"U+{ord(c):04X}")
    assert wrong == []


@given(st.text(max_size=60))
def test_tokenize_idempotent(text):
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


def test_tokenize_keep_case():
    assert tokenize("Great MOVIE") == ["great", "movie"]


def test_tokenize_korean_untouched_by_folding():
    text = "최고의 영화, 진짜!"
    assert tokenize(text) == ["최고의", "영화", "진짜"]


# ---------------------------------------------------------------------------
# label_from_rating
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "rating,expected",
    [
        (1, Polarity.NEGATIVE),
        (4, Polarity.NEGATIVE),
        (7, Polarity.POSITIVE),
        (10, Polarity.POSITIVE),
        (5, None),
        (6, None),
    ],
)
def test_imdb_rating_bands(rating, expected):
    assert label_from_rating(rating, IMDB_SCHEME) is expected


def test_imdb_rating_must_be_integer_in_scale():
    with pytest.raises(DataError):
        label_from_rating(5.5, IMDB_SCHEME)
    with pytest.raises(DataError):
        label_from_rating(0, IMDB_SCHEME)
    with pytest.raises(DataError):
        label_from_rating(11, IMDB_SCHEME)


@pytest.mark.parametrize(
    "rating,expected",
    [
        (0.5, Polarity.NEGATIVE),
        (2.0, Polarity.NEGATIVE),
        (2.5, None),
        (4.5, None),
        (5.0, Polarity.POSITIVE),
    ],
)
def test_watcha_rating_bands(rating, expected):
    assert label_from_rating(rating, WATCHA_SCHEME) is expected


@given(st.integers(min_value=1, max_value=10))
def test_imdb_partitions_the_scale(rating):
    label = label_from_rating(rating, IMDB_SCHEME)
    assert label in (Polarity.NEGATIVE, Polarity.POSITIVE, None)
    assert (label is Polarity.NEGATIVE) == (rating <= 4)
    assert (label is Polarity.POSITIVE) == (rating >= 7)


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


def test_vocab_counts_and_pad():
    vocab = Vocabulary.build([["a", "b"], ["b", "c"]])
    assert len(vocab) == 4  # 3 tokens + pad
    assert vocab.n_tokens == 3
    assert vocab.id_to_token[PAD_ID] == PAD_TOKEN
    assert vocab.token_to_id["b"] == 1  # most frequent
    assert vocab.token_to_id["a"] == 2  # tie with c, lexicographic
    assert vocab.token_to_id["c"] == 3


def test_vocab_order_invariance():
    seqs = [["walk", "run"], ["run", "jump"], ["jump", "walk", "walk"]]
    a = Vocabulary.build(seqs)
    b = Vocabulary.build(list(reversed([list(reversed(s)) for s in seqs])))
    assert a.id_to_token == b.id_to_token
    assert a.counts == b.counts


def test_vocab_empty_corpus():
    with pytest.raises(DataError):
        Vocabulary.build([])


def test_encode_truncates_and_maps_oov():
    vocab = Vocabulary.build([["a", "b", "c"]])
    long = ["a", "b", "c"] * 40  # 120 tokens
    ids = vocab.encode(long, 100)
    assert len(ids) == 100
    assert ids == vocab.encode(long[:100], 100)
    assert vocab.encode(["zzz"], 100) == [PAD_ID]
    assert vocab.encode(["a", "b"], 100) != [PAD_ID, PAD_ID]


@given(st.lists(st.sampled_from(["ant", "bee", "cat", "dog"]), min_size=1, max_size=20))
def test_encode_decode_identity_for_known_tokens(tokens):
    vocab = Vocabulary.build([["ant", "bee", "cat", "dog"]])
    assert vocab.decode(vocab.encode(tokens, 100)) == tokens


def test_vocab_save_load_roundtrip(tmp_path):
    vocab = Vocabulary.build([["coffee", "tea", "tea"], ["coffee", "milk"]])
    path = tmp_path / "vocab.tsv"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.counts == vocab.counts
    assert loaded.digest() == vocab.digest()


@pytest.mark.parametrize("lines, message", [
    (["<pad>\t0\t0", "tea\t1\t2", "tea\t2\t1"], "duplicate tokens"),
    (["tea\t0\t2", "<pad>\t1\t0"], "id 0 must be the padding token"),
])
def test_vocab_load_errors_name_the_file(tmp_path, lines, message):
    path = tmp_path / "vocab.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=message) as info:
        Vocabulary.load(path)
    assert str(info.value).startswith(f"{path}: ")


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def _examples(n_pos, n_neg):
    out = []
    for i in range(n_pos):
        out.append(TokenizedExample((f"p{i}",), Polarity.POSITIVE))
    for i in range(n_neg):
        out.append(TokenizedExample((f"n{i}",), Polarity.NEGATIVE))
    return out


def test_split_sizes_10_10():
    parts = split(_examples(10, 10), ratio=0.7, seed=3)
    assert len(parts.train) == 14
    assert len(parts.test) == 6
    for side in (parts.train, parts.test):
        pos = sum(1 for e in side if e.label is Polarity.POSITIVE)
        assert pos * 2 == len(side)


def test_split_deterministic_and_seed_sensitive():
    examples = _examples(20, 20)
    a = split(examples, seed=1)
    b = split(examples, seed=1)
    assert [e.tokens for e in a.train] == [e.tokens for e in b.train]
    c = split(examples, seed=2)
    assert {e.tokens for e in c.train} != {e.tokens for e in a.train}
    assert len(c.train) == len(a.train)


def test_split_partition_is_disjoint_and_complete():
    examples = _examples(9, 7)
    parts = split(examples, seed=0)
    train = {e.tokens for e in parts.train}
    test = {e.tokens for e in parts.test}
    assert not train & test
    assert train | test == {e.tokens for e in examples}


def test_split_needs_two_per_class():
    with pytest.raises(DataError):
        split(_examples(1, 5))


@given(
    st.integers(min_value=2, max_value=40), st.integers(min_value=2, max_value=40)
)
def test_split_proportion_within_one_example(n_pos, n_neg):
    parts = split(_examples(n_pos, n_neg), ratio=0.7, seed=0)
    for count, side in ((n_pos, Polarity.POSITIVE), (n_neg, Polarity.NEGATIVE)):
        got = sum(1 for e in parts.train if e.label is side)
        assert abs(got - 0.7 * count) <= 1.0


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


def make_imdb_tree(root, pos_ratings=(7, 10), neg_ratings=(1, 4)):
    i = 0
    for part in ("train", "test"):
        for side, ratings in (("pos", pos_ratings), ("neg", neg_ratings)):
            d = root / part / side
            d.mkdir(parents=True)
            for r in ratings:
                (d / f"{i}_{r}.txt").write_text(
                    f"review number {i} with rating {r}", encoding="utf-8"
                )
                i += 1
    return root


def test_load_imdb_dir(tmp_path):
    make_imdb_tree(tmp_path)
    reviews = load_imdb_dir(tmp_path)
    assert len(reviews) == 8
    assert {r.rating for r in reviews} == {1.0, 4.0, 7.0, 10.0}


def test_load_imdb_dir_missing(tmp_path):
    with pytest.raises(DataError):
        load_imdb_dir(tmp_path / "nope")


def test_load_csv_and_tsv(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(
        'text,rating\n"good, really good",9\nawful,2\n', encoding="utf-8"
    )
    rows = load_delimited(csv_path)
    assert [r.rating for r in rows] == [9.0, 2.0]
    assert rows[0].text == "good, really good"

    tsv_path = tmp_path / "data.tsv"
    tsv_path.write_text("text\trating\nnice film\t8\n", encoding="utf-8")
    rows = load_delimited(tsv_path)  # delimiter auto-detected from header
    assert rows[0].text == "nice film"


def test_load_delimited_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("review,score\nok,5\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_delimited(path)


def test_raw_review_rejects_empty_text():
    with pytest.raises(DataError):
        RawReview("   ", 5)


# ---------------------------------------------------------------------------
# prepare + artifacts
# ---------------------------------------------------------------------------


def _toy_reviews():
    words = "alpha bravo charlie delta echo foxtrot golf hotel".split()
    reviews = []
    for i in range(8):
        reviews.append(RawReview(f"great fun movie about {words[i]}", 9))
        reviews.append(RawReview(f"dull boring film about {words[i]}", 2))
    return reviews


def _toy_examples():
    examples, _ = label_reviews(_toy_reviews(), IMDB_SCHEME)
    return examples


def test_prepare_pipeline():
    prepared = prepare(_toy_examples(), d=4, ratio=0.7, seed=5)
    assert prepared.stats["train"] == 12 and prepared.stats["test"] == 4
    for ex in prepared.train + prepared.test:
        assert len(ex.token_ids) <= 4
        assert all(0 <= t < len(prepared.vocab) for t in ex.token_ids)
    # vocabulary is built from the training split only
    train_tokens = {t for ex in prepared.train for t in ex.tokens}
    assert train_tokens <= set(prepared.vocab.token_to_id)
    # full-length sentences are retained for embedding training
    assert max(len(s) for s in prepared.train_sentences) == 5


def test_prepare_all_excluded():
    reviews = [RawReview("meh", 5), RawReview("eh", 6), RawReview("hm", 5)]
    examples, stats = label_reviews(reviews, IMDB_SCHEME)
    assert stats == {"excluded": 3, "empty": 0, "kept": 0}
    with pytest.raises(DataError, match="no labeled examples"):
        prepare(examples)
    with pytest.raises(DataError, match="no labeled examples"):
        prepare(reviews, IMDB_SCHEME)


def test_prepared_roundtrip(tmp_path):
    prepared = prepare(_toy_examples(), d=6, seed=2)
    save_prepared(prepared, tmp_path)
    loaded = load_prepared(tmp_path)
    assert loaded.d == prepared.d
    assert loaded.seed == prepared.seed
    assert loaded.vocab.id_to_token == prepared.vocab.id_to_token
    assert loaded.train == prepared.train
    assert loaded.test == prepared.test
    assert loaded.train_sentences == prepared.train_sentences


_PINNED_REVIEWS = [
    ("A great film, truly GREAT!", 9),
    ("Rated 10/10 -- İstanbul\x1cnights\x1dand\x1edays\x1fend", 10),
    ("dull\x85boring\xa0film ... !!! 1999", 2),
    ("최고의 영화, 진짜! great", 8),
    ("the worst film of 2020: boring, dull & SLOW", 1),
    (" ".join(f"w{'abcdefg'[i % 7]}{i}" for i in range(20)) + " great", 7),
    ("((( ))) --- 42", 3),
    ("meh", 5),
    ("İİ Σσ film end　really", 4),
    ("Fine. Good? Good!", 9),
]


def test_prepare_bytes_are_pinned(tmp_path):
    """The bytes of the five files ``prepare`` writes for a fixed CSV, so
    that a change to tokenizing, encoding or layout is made on purpose. The
    CSV holds rare whitespace, digits, punctuation-only runs, Korean, a
    character whose lowercase is two characters, an excluded rating and one
    review longer than ``d``."""
    import csv
    import hashlib

    from wordcam.cli import main

    data = tmp_path / "reviews.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "rating"])
        writer.writerows(_PINNED_REVIEWS)
    out = tmp_path / "corpus"
    assert main(["prepare", "--data", str(data), "--data-format", "csv",
                 "--d", "8", "--ratio", "0.6", "--seed", "3", "--out", str(out)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }
    assert digests == {
        "embed_corpus.txt": "f41d883a36045ed15d3be2b6f8c60aa3d4b79e5098bbb9565880487061357a3f",
        "meta.json": "76cea4a8c0838840f1d4ce275f710ef41b68db0001dc0b91af9fa2ca4a4379ae",
        "test.tsv": "bdd21a1a874c1edb17d8b1bfeda773fd70892ce16baf3a8500e9889c42585d0d",
        "train.tsv": "3edc2e452560a6d0d64d983b05aaf7bc85ed4bd3d5a27f096fb96a865c643e02",
        "vocab.tsv": "b224bb552a61c2364593df8e6b78f795d21accb41e8e9952d4219727decf6d62",
    }


def test_labeled_example_invariants():
    with pytest.raises(DataError):
        LabeledExample((), Polarity.POSITIVE, ())


def test_imdb_subset_protocol_scaled(tmp_path):
    # the desk-scale experiment samples N per class then splits 5/6, which
    # must land exactly on round numbers; exercised here at 1/100 scale
    import numpy as np

    i = 0
    for part in ("train", "test"):
        for side, rating in (("pos", 9), ("neg", 2)):
            d = tmp_path / part / side
            d.mkdir(parents=True)
            for _ in range(20):
                (d / f"{i}_{rating}.txt").write_text(
                    f"review body number {'x' * (i % 5 + 1)}", encoding="utf-8"
                )
                i += 1
    examples, _ = label_reviews(load_imdb_dir(tmp_path), IMDB_SCHEME)
    rng = np.random.default_rng(0)
    pos = [e for e in examples if e.label is Polarity.POSITIVE]
    neg = [e for e in examples if e.label is Polarity.NEGATIVE]
    subset = [pos[i] for i in rng.permutation(len(pos))[:30]]
    subset += [neg[i] for i in rng.permutation(len(neg))[:30]]
    parts = split(subset, ratio=5 / 6, seed=0)
    assert (len(parts.train), len(parts.test)) == (50, 10)
    for side in (parts.train, parts.test):
        assert sum(1 for e in side if e.label is Polarity.POSITIVE) * 2 == len(side)
