"""BPE learning/application, vocabulary, and id codec contracts."""

import hashlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmt.autodiff import RngState
from dmt.errors import VocabError
from dmt.subword import (BOS_ID, EOS_ID, PAD_ID, UNK_ID, BpeModel, Vocabulary,
                         apply_bpe, build_vocab, learn_bpe,
                         undo_bpe, undo_bpe_counted)

from oracles import learn_bpe_scan

GOLDEN = Path(__file__).parent / "data" / "golden_sentences.txt"

# symbol units the property test builds words from: tiny alphabets make
# count ties common; the Indic units are one to three codepoints each
# (consonant, vowel sign, virama cluster, nukta, joiner)
BPE_UNITS = [
    ["a", "b"],
    ["a", "b", "c"],
    ["ಕ", "ನ", "ಾ", "ಿ", "್", "ಕ್ಷ", "ನ್ನ"],
    ["ക", "ൻ", "ാ", "த", "ு", "ज़", "\u200d", "न"],
]


def brute_force_best_pair(word_freq):
    """Naive pair counting over the full word table (learning oracle)."""
    stats = Counter()
    for word, freq in word_freq.items():
        symbols = tuple(word[:-1]) + (word[-1] + "</w>",)
        for a, b in zip(symbols, symbols[1:]):
            stats[(a, b)] += freq
    if not stats:
        return None
    return min(stats.items(), key=lambda kv: (-kv[1], kv[0]))


def random_sentences(rng, n, alphabet="abcdefgh", max_words=6, max_len=5):
    out = []
    for _ in range(n):
        n_words = int(rng.uniform((), 1, max_words + 1))
        words = []
        for _ in range(n_words):
            wl = int(rng.uniform((), 1, max_len + 1))
            words.append("".join(alphabet[int(rng.uniform((), 0, len(alphabet)))]
                                 for _ in range(wl)))
        out.append(words)
    return out


class TestLearnBpe:
    def test_single_word_corpus(self):
        # {"ab": 2}: the only pair is ("a", "b</w>") with count 2
        oracle = brute_force_best_pair({"ab": 2})
        assert oracle == (("a", "b</w>"), 2)
        model = learn_bpe([["ab"], ["ab"]], num_merges=1)
        assert model.merges == [("a", "b</w>")]

    def test_zero_merges(self):
        assert learn_bpe([["abc"]], num_merges=0).merges == []

    def test_shared_prefix_wins(self):
        # {"abc":1, "abd":1}: ("a","b") occurs twice, beats count-1 pairs
        oracle = brute_force_best_pair({"abc": 1, "abd": 1})
        assert oracle == (("a", "b"), 2)
        model = learn_bpe([["abc", "abd"]], num_merges=1)
        assert model.merges == [("a", "b")]

    def test_stops_when_no_pair_repeats(self):
        model = learn_bpe([["xy", "zw"]], num_merges=100)
        assert model.merges == []

    def test_empty_corpus(self):
        assert learn_bpe([], num_merges=10).merges == []

    def test_negative_merges_rejected(self):
        with pytest.raises(VocabError):
            learn_bpe([], num_merges=-1)

    def test_deterministic(self):
        rng1, rng2 = RngState(5), RngState(5)
        c1 = random_sentences(rng1, 50)
        c2 = random_sentences(rng2, 50)
        assert learn_bpe(c1, 40).merges == learn_bpe(c2, 40).merges

    def test_matches_naive_recount(self):
        """Incremental statistics agree with full recounting, merge by merge."""
        rng = RngState(17)
        corpus = random_sentences(rng, 40, alphabet="abcd")
        model = learn_bpe(corpus, 30)

        word_freq = Counter(w for s in corpus for w in s)
        words = {w: tuple(w[:-1]) + (w[-1] + "</w>",) for w in word_freq}
        for merge in model.merges:
            stats = Counter()
            for w, sym in words.items():
                for p in zip(sym, sym[1:]):
                    stats[p] += word_freq[w]
            expected = min(stats.items(), key=lambda kv: (-kv[1], kv[0]))
            assert expected[0] == merge and expected[1] >= 2
            for w, sym in words.items():
                out, i = [], 0
                while i < len(sym):
                    if i < len(sym) - 1 and (sym[i], sym[i + 1]) == merge:
                        out.append(sym[i] + sym[i + 1])
                        i += 2
                    else:
                        out.append(sym[i])
                        i += 1
                words[w] = tuple(out)


@st.composite
def bpe_corpora(draw):
    """Sentences drawn from a small pool of words, so words repeat."""
    units = draw(st.sampled_from(BPE_UNITS))
    word = st.lists(st.sampled_from(units), min_size=1, max_size=6).map("".join)
    pool = draw(st.lists(word, min_size=1, max_size=8))
    return draw(st.lists(st.lists(st.sampled_from(pool), max_size=6), max_size=12))


class TestLearnBpeAgainstScan:
    @given(corpus=bpe_corpora(),
           budget=st.one_of(st.integers(0, 40), st.just(10_000)))
    @settings(max_examples=300, deadline=None)
    @example(corpus=[["ab", "ab", "ba", "ba"]], budget=0)
    @example(corpus=[["aaaa", "abab", "baba"]] * 3, budget=10_000)
    def test_merges_match_full_scan(self, corpus, budget):
        """The heap picks every merge the full scan picks, ties included,
        whether the budget is 0, runs out, or outlasts the repeated pairs."""
        assert learn_bpe(corpus, budget).merges == learn_bpe_scan(corpus, budget).merges

    @pytest.mark.parametrize("budget, sha256", [
        (20, "f69576076861479596e4c9526b6a67cba8f201d82af8af994daf46c5496e4cd5"),
        (10_000, "9dd955eee9820aa4ca17791761aff4aa26344c38aed0b57e4a334e96015675ab"),
    ])
    def test_golden_model_bytes(self, tmp_path, budget, sha256):
        """Pins the merge order: learned from the whitespace-split golden
        sentences, the saved model must keep these exact bytes."""
        lines = GOLDEN.read_text(encoding="utf-8").splitlines()
        path = tmp_path / "golden.model"
        learn_bpe([ln.split() for ln in lines], budget).save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


class TestMalformedBpeInput:
    def test_fractional_budget_rejected(self):
        with pytest.raises(VocabError, match="integer"):
            learn_bpe([["ab", "ab"]], 2.5)

    def test_bool_budget_rejected(self):
        # True once learned one merge
        with pytest.raises(VocabError, match="integer"):
            learn_bpe([["ab", "ab"]], True)

    def test_numpy_integer_budget_accepted(self):
        corpus = [["abc", "abd", "abc"]]
        assert learn_bpe(corpus, np.int64(2)).merges == learn_bpe(corpus, 2).merges

    def test_empty_token_in_corpus_rejected(self):
        with pytest.raises(VocabError, match="empty token"):
            learn_bpe([["ab", ""]], 3)

    def test_empty_token_applied_rejected(self):
        model = learn_bpe([["ab"], ["ab"]], 1)
        with pytest.raises(VocabError, match="empty token"):
            apply_bpe(model, [""])


class TestApplyBpe:
    def test_character_fallback(self):
        model = BpeModel([])
        assert apply_bpe(model, ["abc"]) == ["a@@", "b@@", "c"]

    def test_learned_merge_applied(self):
        model = learn_bpe([["ab"], ["ab"]], num_merges=1)
        assert apply_bpe(model, ["ab"]) == ["ab"]

    def test_unseen_token_with_unrelated_merges(self):
        model = learn_bpe([["ab"], ["ab"]], num_merges=1)
        assert apply_bpe(model, ["xy"]) == ["x@@", "y"]

    def test_no_whitespace_in_pieces(self):
        rng = RngState(3)
        corpus = random_sentences(rng, 30)
        model = learn_bpe(corpus, 50)
        for sent in corpus:
            for piece in apply_bpe(model, sent):
                assert piece and " " not in piece

    def test_pieces_reconstruct_characters(self):
        rng = RngState(4)
        corpus = random_sentences(rng, 30)
        model = learn_bpe(corpus, 50)
        for sent in corpus:
            pieces = apply_bpe(model, sent)
            joined = "".join(p[:-2] if p.endswith("@@") else p for p in pieces)
            assert joined == "".join(sent)

    def test_monotone_piece_count_in_merges(self):
        """More merges never split a training word into more pieces."""
        rng = RngState(5)
        corpus = random_sentences(rng, 60)
        words = sorted({w for s in corpus for w in s})
        prev = None
        for n in (0, 5, 20, 80, 300):
            model = learn_bpe(corpus, n)
            counts = [len(apply_bpe(model, [w])) for w in words]
            if prev is not None:
                assert all(c <= p for c, p in zip(counts, prev))
            prev = counts


class TestUndoBpe:
    def test_inverse_of_fallback(self):
        assert undo_bpe(["a@@", "b@@", "c"]) == ["abc"]

    def test_plain_token(self):
        assert undo_bpe(["hello"]) == ["hello"]

    def test_dangling_marker_counted(self):
        tokens, dangling = undo_bpe_counted(["a@@", "b@@"])
        assert tokens == ["ab"]
        assert dangling == 1

    def test_round_trip_random_models(self):
        rng = RngState(6)
        for trial in range(10):
            corpus = random_sentences(rng, 60)
            model = learn_bpe(corpus, int(rng.uniform((), 0, 200)))
            probe = random_sentences(rng, 100)
            for sent in probe:
                assert undo_bpe(apply_bpe(model, sent)) == sent


class TestVocabulary:
    def test_frequency_ordering(self):
        vocab = build_vocab([["a", "a", "b"]])
        assert vocab.id_of["a"] == 4
        assert vocab.id_of["b"] == 5

    def test_min_count(self):
        vocab = build_vocab([["a", "a", "b"]], min_count=2)
        assert "a" in vocab and "b" not in vocab

    def test_lexicographic_tie_break(self):
        vocab = build_vocab([["y", "x"]])
        assert vocab.id_of["x"] < vocab.id_of["y"]

    def test_max_size(self):
        vocab = build_vocab([["a", "a", "b", "c"]], max_size=1)
        assert len(vocab) == 5  # 4 specials + 1

    def test_negative_max_size_rejected(self):
        # max_size=-1 once sliced off the last token silently
        with pytest.raises(VocabError, match="max_size"):
            build_vocab([["a", "a", "b", "c"]], max_size=-1)

    def test_non_integer_count_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("a\tx\n", encoding="utf-8")
        with pytest.raises(VocabError, match="malformed"):
            Vocabulary.load(path)

    def test_specials_pinned(self):
        vocab = build_vocab([["a"]])
        assert vocab.token_of[PAD_ID] == "<pad>"
        assert vocab.token_of[UNK_ID] == "<unk>"
        assert vocab.token_of[BOS_ID] == "<s>"
        assert vocab.token_of[EOS_ID] == "</s>"

    def test_bijection(self):
        rng = RngState(8)
        vocab = build_vocab(random_sentences(rng, 40))
        for token, i in vocab.id_of.items():
            assert vocab.token_of[i] == token
        assert len(set(vocab.id_of.values())) == len(vocab)

    def test_save_load_preserves_ids(self, tmp_path):
        rng = RngState(9)
        vocab = build_vocab(random_sentences(rng, 40))
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.id_of == vocab.id_of
        assert loaded.counts == vocab.counts
        # serialization is stable byte-for-byte
        loaded.save(tmp_path / "vocab2.tsv")
        assert (tmp_path / "vocab2.tsv").read_bytes() == path.read_bytes()

    def test_fingerprint_tracks_content(self, tmp_path):
        v1 = build_vocab([["a", "b"]])
        v2 = build_vocab([["a", "b"]])
        v3 = build_vocab([["a", "c"]])
        assert v1.fingerprint() == v2.fingerprint()
        assert v1.fingerprint() != v3.fingerprint()


class TestEncodeDecode:
    def test_empty_gets_eos(self):
        vocab = build_vocab([["a"]])
        assert vocab.encode([]) == [EOS_ID]

    def test_unknown_maps_to_unk(self):
        vocab = build_vocab([["a"]])
        assert vocab.encode(["a", "zzz"]) == [4, UNK_ID, EOS_ID]

    def test_decode_drops_specials(self):
        vocab = build_vocab([["a"]])
        assert vocab.decode([4, EOS_ID]) == ["a"]
        assert vocab.decode([PAD_ID, PAD_ID, EOS_ID]) == []
        assert vocab.decode([BOS_ID, 4]) == ["a"]

    def test_unk_rendered_literally(self):
        vocab = build_vocab([["a"]])
        assert vocab.decode([UNK_ID]) == ["<unk>"]

    def test_out_of_range_rejected(self):
        vocab = build_vocab([["a"]])
        with pytest.raises(VocabError):
            vocab.decode([len(vocab)])

    def test_round_trip_in_vocab(self):
        rng = RngState(10)
        corpus = random_sentences(rng, 40)
        model = learn_bpe(corpus, 60)
        applied = [apply_bpe(model, s) for s in corpus]
        vocab = build_vocab(applied)
        for subwords in applied:
            assert vocab.decode(vocab.encode(subwords)) == subwords


class TestModelSerialization:
    def test_save_load_round_trip(self, tmp_path):
        rng = RngState(11)
        model = learn_bpe(random_sentences(rng, 50), 80)
        path = tmp_path / "bpe.model"
        model.save(path)
        loaded = BpeModel.load(path)
        assert loaded.merges == model.merges
        loaded.save(tmp_path / "bpe2.model")
        assert (tmp_path / "bpe2.model").read_bytes() == path.read_bytes()
        crlf = tmp_path / "crlf.model"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert BpeModel.load(crlf) == model

    def test_header_required(self, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("a b\n", encoding="utf-8")
        with pytest.raises(VocabError):
            BpeModel.load(bad)

    def test_learning_is_byte_deterministic(self, tmp_path):
        rng1, rng2 = RngState(12), RngState(12)
        m1 = learn_bpe(random_sentences(rng1, 50), 70)
        m2 = learn_bpe(random_sentences(rng2, 50), 70)
        m1.save(tmp_path / "m1")
        m2.save(tmp_path / "m2")
        assert (tmp_path / "m1").read_bytes() == (tmp_path / "m2").read_bytes()
