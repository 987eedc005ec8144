"""BLEU against an independent brute-force n-gram scorer."""

import math

import pytest

from dmt.autodiff import RngState
from dmt.bleu import (corpus_average, modified_precision,
                      score_corpus, score_files, sentence_bleu)
from dmt.errors import ScoringError

from oracles import bleu_oracle, clipped_matches_oracle

# 20 hand-constructed cases; expected values frozen from bleu_oracle
GOLDEN_CASES = [
    ("the the the the the the the".split(), ["the cat is on the mat".split()]),
    ("the cat is on the mat".split(), ["the cat is on the mat".split()]),
    ("completely different words here now".split(), ["nothing matches at all anywhere".split()]),
    ("a b c d".split(), ["a b c d".split()]),
    ("a b c".split(), ["a b c".split()]),  # shorter than 4 -> 0
    ("a b c d e".split(), ["a b c d f".split()]),
    ("a b c d e f g h".split(), ["a b c d e f g h i j".split()]),
    ("a a a a".split(), ["a a b b".split()]),
    ("x y z w v".split(), ["x y z w v", "x y z q r"]),
    ("x y z q r".split(), ["x y z w v", "x y z q r"]),
    ("one two three four five six".split(), ["one two three four".split()]),
    ("one two three four".split(), ["one two three four five six".split()]),
    ("p q r s p q r s".split(), ["p q r s".split()]),
    ("m n o p q".split(), ["m n o p q r s t".split(), "m n o p q".split()]),
    ("he sat on the mat .".split(), ["he sat on a mat .".split()]),
    ("d c b a".split(), ["a b c d".split()]),
    ("a b a b a b".split(), ["a b a b".split()]),
    ("k l m n o p".split(), ["k l m n o p".split(), "completely other text".split()]),
    ("s t u v w".split(), ["s t u v w x".split()]),
    ("g h i j k l m".split(), ["g h i j k l m".split()]),
]


def to_ref_lists(case):
    cand, refs = case
    return cand, [r.split() if isinstance(r, str) else r for r in refs]


class TestModifiedPrecision:
    def test_clipped_unigram_case(self):
        cand = "the the the the the the the".split()
        refs = ["the cat is on the mat".split()]
        assert modified_precision(cand, refs, 1) == (2, 7)
        assert clipped_matches_oracle(cand, refs, 1) == (2, 7)

    def test_identity_full_match(self):
        cand = "a b c d e".split()
        for n in range(1, 6):
            match, total = modified_precision(cand, [cand], n)
            assert match == total == len(cand) - n + 1

    def test_disjoint_sets(self):
        match, total = modified_precision("a b c".split(), ["x y z".split()], 1)
        assert (match, total) == (0, 3)

    def test_agrees_with_oracle_random(self):
        rng = RngState(1)
        for _ in range(300):
            n = int(rng.uniform((), 1, 5))
            cand = [str(int(rng.uniform((), 0, 6))) for _ in range(int(rng.uniform((), 0, 10)))]
            refs = [[str(int(rng.uniform((), 0, 6))) for _ in range(int(rng.uniform((), 1, 10)))]
                    for _ in range(int(rng.uniform((), 1, 3)))]
            assert modified_precision(cand, refs, n) == clipped_matches_oracle(cand, refs, n)


class TestSentenceBleu:
    def test_exact_match_scores_one(self):
        cand = "the cat is on the mat".split()
        assert sentence_bleu(cand, [cand]) == 1.0

    def test_zero_four_gram_overlap_scores_zero(self):
        cand = "a b c d e".split()
        ref = "a b x d e".split()  # breaks every 4-gram
        assert sentence_bleu(cand, [ref]) == 0.0

    def test_short_candidate_scores_zero(self):
        assert sentence_bleu("a b c".split(), ["a b c".split()]) == 0.0

    def test_empty_candidate_scores_zero(self):
        assert sentence_bleu([], ["a b c d".split()]) == 0.0

    def test_empty_references_rejected(self):
        with pytest.raises(ScoringError):
            sentence_bleu("a b".split(), [])

    def test_golden_suite_matches_oracle(self):
        for case in GOLDEN_CASES:
            cand, refs = to_ref_lists(case)
            expected = bleu_oracle(cand, refs)
            assert abs(sentence_bleu(cand, refs) - expected) < 1e-12

    def test_brevity_penalty_value(self):
        # candidate a strict prefix: all precisions 1, BP = exp(1 - r/c)
        cand = "a b c d".split()
        ref = "a b c d e f".split()
        expected = math.exp(1.0 - 6.0 / 4.0)
        assert abs(sentence_bleu(cand, [ref]) - expected) < 1e-12

    def test_effective_length_tie_prefers_shorter(self):
        cand = "a b c d e".split()
        refs = ["a b c d".split(), "a b c d e f".split()]  # both distance 1
        # shorter ref (4) wins -> c > r -> BP = 1
        assert sentence_bleu(cand, refs) == bleu_oracle(cand, refs)
        assert sentence_bleu(cand, refs) > sentence_bleu(cand, [refs[1]])

    def test_reference_permutation_invariant(self):
        rng = RngState(2)
        for _ in range(100):
            cand = [str(int(rng.uniform((), 0, 8))) for _ in range(int(rng.uniform((), 1, 12)))]
            refs = [[str(int(rng.uniform((), 0, 8))) for _ in range(int(rng.uniform((), 1, 12)))]
                    for _ in range(3)]
            assert sentence_bleu(cand, refs) == sentence_bleu(cand, refs[::-1])

    def test_adding_reference_never_decreases(self):
        rng = RngState(3)
        for _ in range(500):
            cand = [str(int(rng.uniform((), 0, 10))) for _ in range(int(rng.uniform((), 1, 13)))]
            refs = [[str(int(rng.uniform((), 0, 10))) for _ in range(int(rng.uniform((), 1, 13)))]]
            base = sentence_bleu(cand, refs)
            refs.append([str(int(rng.uniform((), 0, 10))) for _ in range(int(rng.uniform((), 1, 13)))])
            assert sentence_bleu(cand, refs) >= base - 1e-15

    def test_sweep_against_oracle(self):
        rng = RngState(4)
        worst = 0.0
        for _ in range(1000):
            cand = [str(int(rng.uniform((), 0, 10))) for _ in range(int(rng.uniform((), 0, 13)))]
            refs = [[str(int(rng.uniform((), 0, 10))) for _ in range(int(rng.uniform((), 1, 13)))]
                    for _ in range(int(rng.uniform((), 1, 3)))]
            got = sentence_bleu(cand, refs)
            assert 0.0 <= got <= 1.0
            worst = max(worst, abs(got - bleu_oracle(cand, refs)))
        assert worst < 1e-12


class TestCorpusAverage:
    def test_mean_of_two(self):
        assert corpus_average([1.0, 0.0]).mean == 0.5

    def test_identical_scores(self):
        assert corpus_average([0.37] * 5).mean == pytest.approx(0.37, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ScoringError):
            corpus_average([])

    def test_permutation_invariant(self):
        scores = [0.1, 0.9, 0.4, 0.7]
        assert corpus_average(scores).mean == corpus_average(scores[::-1]).mean

    def test_golden_mean_matches_hand_arithmetic(self):
        scores = [bleu_oracle(*to_ref_lists(case)) for case in GOLDEN_CASES]
        expected = math.fsum(scores) / len(scores)
        cands = [to_ref_lists(c)[0] for c in GOLDEN_CASES]
        refs = [to_ref_lists(c)[1] for c in GOLDEN_CASES]
        report = score_corpus(cands, refs)
        assert abs(report.mean - expected) < 1e-12
        assert len(report.counts) == len(GOLDEN_CASES)


class TestScoreFiles:
    def test_identical_files_score_one(self, tmp_path):
        text = "one two three four five\nsix seven eight nine ten\n"
        cand = tmp_path / "cand.txt"
        ref = tmp_path / "ref.txt"
        cand.write_text(text, encoding="utf-8")
        ref.write_text(text, encoding="utf-8")
        report = score_files(cand, ref)
        assert report.mean == 1.0

    def test_line_count_mismatch(self, tmp_path):
        (tmp_path / "c.txt").write_text("a b c d\n", encoding="utf-8")
        (tmp_path / "r.txt").write_text("a b c d\ne f g h\n", encoding="utf-8")
        with pytest.raises(ScoringError):
            score_files(tmp_path / "c.txt", tmp_path / "r.txt")

    def test_lines_split_on_lf_only(self, tmp_path):
        # \f and U+2028 are line breaks to str.splitlines, not to a corpus
        (tmp_path / "c.txt").write_text("a\fb c d\ne f\u2028g h\n", encoding="utf-8")
        (tmp_path / "r.txt").write_text("a b c d\ne f g h\n", encoding="utf-8")
        report = score_files(tmp_path / "c.txt", tmp_path / "r.txt")
        assert report.per_sentence == [1.0, 1.0]

    def test_five_line_golden_pair(self, tmp_path):
        cands = ["a b c d e", "a b c d", "x y z w", "p q r s t u", "totally off base here"]
        refs = ["a b c d e", "a b c d e f", "x y z w", "p q r s t", "no overlap at all now"]
        (tmp_path / "c.txt").write_text("\n".join(cands) + "\n", encoding="utf-8")
        (tmp_path / "r.txt").write_text("\n".join(refs) + "\n", encoding="utf-8")
        expected = math.fsum(
            bleu_oracle(c.split(), [r.split()]) for c, r in zip(cands, refs)) / 5
        report = score_files(tmp_path / "c.txt", tmp_path / "r.txt",
                             report_path=tmp_path / "report.tsv")
        assert abs(report.mean - expected) < 1e-12
        lines = (tmp_path / "report.tsv").read_text().splitlines()
        assert len(lines) == 6
        assert lines[-1].startswith("mean_sentence_bleu\t")

    def test_undo_bpe_flag(self, tmp_path):
        (tmp_path / "c.txt").write_text("a@@ b c d e\n", encoding="utf-8")
        (tmp_path / "r.txt").write_text("ab c d e\n", encoding="utf-8")
        report = score_files(tmp_path / "c.txt", tmp_path / "r.txt", do_undo_bpe=True)
        assert report.mean == 1.0
