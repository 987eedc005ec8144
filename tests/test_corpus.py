"""Corpus loading, splitting, and stats contracts."""

from collections import Counter

import pytest

from dmt.corpus import (LanguageTag, ParallelCorpus, SentencePair,
                        load_monolingual, load_parallel, save_parallel, split,
                        stats)
from dmt.errors import CorpusError
from dmt.textnorm import DEVANAGARI, LANG_SCRIPT, script_for_lang

KN = LanguageTag("kn")
ML = LanguageTag("ml")


def write(path, lines, trailing=True):
    text = "\n".join(lines) + ("\n" if trailing else "")
    path.write_text(text, encoding="utf-8")
    return path


class TestLanguageTag:
    def test_known_tags(self):
        for code in ("kn", "ml", "ta", "te", "tu", "sn"):
            assert LanguageTag(code).code == code

    def test_sanskrit_alias(self):
        assert LanguageTag("sa").code == "sn"

    def test_unknown_rejected(self):
        with pytest.raises(CorpusError):
            LanguageTag("xx")

    def test_admitted_iff_a_script_is_known(self):
        for code in LANG_SCRIPT:
            assert script_for_lang(LanguageTag(code).code) is LANG_SCRIPT[code]
        assert script_for_lang(LanguageTag("sa").code) is DEVANAGARI
        with pytest.raises(CorpusError):
            LanguageTag("zz")


class TestLoadParallel:
    def test_three_line_zip(self, tmp_path):
        src = write(tmp_path / "a.kn", ["s1", "s2", "s3"])
        tgt = write(tmp_path / "a.ml", ["t1", "t2", "t3"])
        corpus = load_parallel(src, tgt, KN, ML)
        assert len(corpus) == 3
        assert [p.source for p in corpus] == ["s1", "s2", "s3"]
        assert [p.target for p in corpus] == ["t1", "t2", "t3"]
        assert all(not p.synthetic for p in corpus)

    def test_line_count_mismatch(self, tmp_path):
        src = write(tmp_path / "a.kn", ["1", "2", "3", "4", "5"])
        tgt = write(tmp_path / "a.ml", ["1", "2", "3", "4"])
        with pytest.raises(CorpusError, match="mismatch"):
            load_parallel(src, tgt, KN, ML)

    def test_both_sides_blank_dropped(self, tmp_path):
        src = write(tmp_path / "a.kn", ["s1", "", "s3"])
        tgt = write(tmp_path / "a.ml", ["t1", "", "t3"])
        corpus = load_parallel(src, tgt, KN, ML)
        assert len(corpus) == 2
        assert corpus.n_rejected == 0

    def test_one_sided_blank_rejected_with_count(self, tmp_path):
        src = write(tmp_path / "a.kn", ["s1", "", "s3"])
        tgt = write(tmp_path / "a.ml", ["t1", "t2", "t3"])
        corpus = load_parallel(src, tgt, KN, ML)
        assert len(corpus) == 2
        assert corpus.n_rejected == 1

    def test_invalid_utf8(self, tmp_path):
        bad = tmp_path / "bad.kn"
        bad.write_bytes(b"ok\n\xff\xfe broken\n")
        tgt = write(tmp_path / "a.ml", ["t1", "t2"])
        with pytest.raises(CorpusError, match="UTF-8"):
            load_parallel(bad, tgt, KN, ML)

    def test_missing_file(self, tmp_path):
        tgt = write(tmp_path / "a.ml", ["t1"])
        with pytest.raises(CorpusError, match="no such"):
            load_parallel(tmp_path / "nope.kn", tgt, KN, ML)

    def test_trailing_newline_optional(self, tmp_path):
        src = write(tmp_path / "a.kn", ["s1", "s2"], trailing=False)
        tgt = write(tmp_path / "a.ml", ["t1", "t2"])
        assert len(load_parallel(src, tgt, KN, ML)) == 2

    def test_write_back_byte_identical(self, tmp_path):
        lines_src = ["ಒಂದು ವಾಕ್ಯ", "ಎರಡು  ಪದ", "three words here"]
        lines_tgt = ["ഒരു വാചകം", "രണ്ട്", "മൂന്ന്"]
        src = write(tmp_path / "a.kn", lines_src)
        tgt = write(tmp_path / "a.ml", lines_tgt)
        corpus = load_parallel(src, tgt, KN, ML)
        save_parallel(corpus, tmp_path / "b.kn", tmp_path / "b.ml")
        assert (tmp_path / "b.kn").read_bytes() == src.read_bytes()
        assert (tmp_path / "b.ml").read_bytes() == tgt.read_bytes()


class TestLoadMonolingual:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.ml"
        p.write_text("", encoding="utf-8")
        assert len(load_monolingual(p, ML)) == 0

    def test_blank_lines_dropped(self, tmp_path):
        lines = [f"line {i}" for i in range(8)]
        lines.insert(2, "")
        lines.insert(6, "   ")
        p = write(tmp_path / "m.ml", lines)
        corpus = load_monolingual(p, ML)
        assert len(corpus) == 8

    def test_order_preserved(self, tmp_path):
        p = write(tmp_path / "m.ml", ["c", "a", "b"])
        assert load_monolingual(p, ML).sentences == ["c", "a", "b"]


def make_corpus(n):
    return ParallelCorpus([SentencePair(f"s{i}", f"t{i}") for i in range(n)], KN, ML)


class TestSplit:
    def test_sizes(self):
        train, dev, test = split(make_corpus(6000), 4000, 1000, 1000, seed=3)
        assert (len(train), len(dev), len(test)) == (4000, 1000, 1000)

    def test_all_into_train(self):
        corpus = make_corpus(50)
        train, dev, test = split(corpus, 50, 0, 0, seed=3)
        assert len(train) == 50 and len(dev) == 0 and len(test) == 0
        assert Counter(p.source for p in train) == Counter(p.source for p in corpus)

    def test_same_seed_same_partition(self):
        a = split(make_corpus(100), 60, 20, 20, seed=9)
        b = split(make_corpus(100), 60, 20, 20, seed=9)
        for ca, cb in zip(a, b):
            assert [p.source for p in ca] == [p.source for p in cb]

    def test_different_seed_differs(self):
        a, _, _ = split(make_corpus(100), 60, 20, 20, seed=1)
        b, _, _ = split(make_corpus(100), 60, 20, 20, seed=2)
        assert [p.source for p in a] != [p.source for p in b]

    def test_partition_is_disjoint_and_complete(self):
        corpus = make_corpus(40)
        train, dev, test = split(corpus, 25, 10, 5, seed=4)
        seen = Counter(p.source for c in (train, dev, test) for p in c)
        assert sum(seen.values()) == 40
        assert all(v == 1 for v in seen.values())

    def test_no_shuffle_mode_is_prefix(self):
        corpus = make_corpus(10)
        train, dev, test = split(corpus, 5, 3, 2, seed=0, shuffle=False)
        assert [p.source for p in train] == [f"s{i}" for i in range(5)]
        assert [p.source for p in dev] == ["s5", "s6", "s7"]

    def test_oversized_split_rejected(self):
        with pytest.raises(CorpusError):
            split(make_corpus(10), 8, 2, 1, seed=0)

    @pytest.mark.parametrize("sizes", [(-1, 2, 2), (4, -1, 2), (4, 2, -1)])
    def test_negative_size_rejected(self, sizes):
        # (-1, 2, 2) once sliced train as s0-s4, overlapping test s1-s2
        with pytest.raises(CorpusError, match="negative"):
            split(make_corpus(6), *sizes, seed=0, shuffle=False)


class TestStats:
    def test_empty(self):
        s = stats(ParallelCorpus([], KN, ML))
        assert (s.n_pairs, s.n_tokens_src, s.n_tokens_tgt) == (0, 0, 0)
        assert s.mean_len_src == 0.0

    def test_arithmetic(self):
        corpus = ParallelCorpus(
            [SentencePair("a b c", "x y"), SentencePair("d e f g", "z w v")], KN, ML)
        s = stats(corpus)
        assert s.n_tokens_src == 7
        assert s.mean_len_src == 3.5
        assert s.n_tokens_tgt == 5

    def test_n_pairs_matches_len(self):
        for n in (0, 1, 17):
            assert stats(make_corpus(n)).n_pairs == n

    def test_tsv_format(self):
        out = stats(make_corpus(2)).as_tsv()
        assert "n_pairs\t2" in out


class TestSentencePair:
    def test_newline_rejected(self):
        with pytest.raises(CorpusError):
            SentencePair("a\nb", "c")

    def test_empty_side_rejected(self):
        with pytest.raises(CorpusError):
            SentencePair("a", "   ")

    def test_swapped(self):
        corpus = make_corpus(3)
        rev = corpus.swapped()
        assert rev.src_lang == ML and rev.tgt_lang == KN
        assert rev.pairs[0].source == "t0" and rev.pairs[0].target == "s0"
