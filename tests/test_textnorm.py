"""Normalization, tokenization, and offset-transliteration contracts."""

import unicodedata
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmt import textnorm as tn
from dmt.autodiff import RngState

from oracles import compose_nukta_pairwise, transliterate_counted_loop

GOLDEN = (Path(__file__).parent / "data" / "golden_sentences.txt").read_text(
    encoding="utf-8").splitlines()

INDIC_SCRIPTS = [tn.KANNADA, tn.TAMIL, tn.TELUGU, tn.MALAYALAM]


def independent_nukta_pairs():
    """Derive (base, nukta, precomposed) rows straight from the Unicode
    canonical decomposition tables, independent of the implementation."""
    rows = []
    for cp in range(0x0900, 0x0D80):
        d = unicodedata.decomposition(chr(cp))
        if not d or d.startswith("<"):
            continue
        parts = d.split()
        if len(parts) != 2:
            continue
        mark = chr(int(parts[1], 16))
        if "NUKTA" in unicodedata.name(mark, ""):
            rows.append((chr(int(parts[0], 16)), mark, chr(cp)))
    return rows


class TestNormalize:
    def test_whitespace_collapse(self):
        assert tn.normalize("a  b") == "a b"
        assert tn.normalize("  a\tb \n c ") == "a b c"

    def test_ascii_fixed_point(self):
        s = "already normalized ascii text."
        assert tn.normalize(s) == s

    def test_nukta_composition_matches_unicode_tables(self):
        rows = independent_nukta_pairs()
        assert rows, "unicodedata returned no nukta decompositions"
        for base, mark, composed in rows:
            assert tn.normalize(base + mark) == composed

    def test_joiners_removed_by_default(self):
        assert tn.normalize("क‍ष") == "कष"
        assert tn.normalize("ന‌റ") == "നറ"

    def test_joiners_kept_on_request(self):
        assert "‍" in tn.normalize("क‍ष", keep_joiners=True)

    def test_idempotent_on_golden(self):
        for s in GOLDEN:
            once = tn.normalize(s)
            assert tn.normalize(once) == once

    def test_idempotent_on_random_text(self):
        rng = RngState(7)
        pool = ("abc ऀकक़़‍‌  ಕಖತ "
                "தமி తె ml\tक़ xyz 12.5 ,.?")
        for _ in range(200):
            n = int(rng.uniform((), 1, 40))
            s = "".join(pool[int(rng.uniform((), 0, len(pool)))] for _ in range(n))
            once = tn.normalize(s)
            assert tn.normalize(once) == once


class TestTokenize:
    def test_punctuation_detached(self):
        assert tn.tokenize("hello, world").tokens == ("hello", ",", "world")

    def test_decimal_number_kept(self):
        assert tn.tokenize("12.5").tokens == ("12.5",)

    def test_trailing_period_detached(self):
        assert tn.tokenize("cost 12.").tokens == ("cost", "12", ".")

    def test_danda_is_final_token(self):
        toks = tn.tokenize("राम घर गया।").tokens
        assert toks[-1] == "।"
        assert toks == ("राम", "घर", "गया", "।")

    def test_golden_rule_table(self):
        # every golden sentence: no empty tokens, no whitespace inside a
        # token, and non-whitespace characters are preserved in order
        for s in GOLDEN:
            toks = tn.tokenize(s)
            assert all(toks.tokens)
            assert all(not ch.isspace() for t in toks for ch in t)
            assert "".join(toks.tokens) == "".join(s.split())

    def test_empty(self):
        assert tn.tokenize("").tokens == ()


class TestDetokenize:
    def test_basic(self):
        assert tn.detokenize(["hello", ",", "world"]) == "hello, world"

    def test_empty(self):
        assert tn.detokenize([]) == ""

    def test_brackets(self):
        assert tn.detokenize(["a", "(", "b", ")", "."]) == "a (b)."

    def test_round_trip_on_golden(self):
        for s in GOLDEN:
            norm = tn.normalize(s)
            assert tn.detokenize(tn.tokenize(norm)) == norm


class TestTransliterate:
    def test_kannada_ka_to_devanagari(self):
        # offset arithmetic per the Unicode charts: U+0C95 - U+0C80 = 0x15,
        # U+0900 + 0x15 = U+0915
        assert tn.transliterate("ಕ", tn.KANNADA, tn.DEVANAGARI) == "क"

    def test_identity_when_same_script(self):
        s = "देवनागरी"
        assert tn.transliterate(s, tn.DEVANAGARI, tn.DEVANAGARI) == s

    def test_out_of_block_passthrough(self):
        assert tn.transliterate("abc 123", tn.KANNADA, tn.DEVANAGARI) == "abc 123"

    def test_detransliterate_devanagari_identity(self):
        s = "राम घर गया।"
        assert tn.detransliterate(s, tn.DEVANAGARI) == s

    def test_detransliterate_inverts(self):
        assert tn.detransliterate("क", tn.KANNADA) == "ಕ"

    @pytest.mark.parametrize("src", INDIC_SCRIPTS, ids=lambda s: s.name)
    def test_round_trip_every_assigned_codepoint(self, src):
        """Exhaustive sweep of the 128-codepoint block: mapped codepoints
        invert exactly; unmapped ones pass through and are counted."""
        mapped = passthrough = 0
        for cp in range(src.block_base, src.block_base + tn.ScriptId.BLOCK_SIZE):
            ch = chr(cp)
            if unicodedata.category(ch) == "Cn":
                continue
            dev, n_pass = tn.transliterate_counted(ch, src, tn.DEVANAGARI)
            back = tn.detransliterate(dev, src)
            assert back == ch
            if n_pass:
                passthrough += 1
                assert dev == ch
            else:
                mapped += 1
                assert dev != ch
        assert mapped > 50
        assert mapped + passthrough >= 70

    def test_unassigned_slots_counted(self):
        # Devanagari has letters in slots that Tamil leaves unassigned
        text = "".join(chr(cp) for cp in range(0x0915, 0x0920))
        out, count = tn.transliterate_counted(text, tn.DEVANAGARI, tn.TAMIL)
        assert count > 0
        assert len(out) == len(text)

    def test_script_lookup(self):
        assert tn.script("kannada") is tn.KANNADA
        assert tn.script_for_lang("tu") is tn.KANNADA
        assert tn.script_for_lang("sn") is tn.DEVANAGARI
        with pytest.raises(KeyError):
            tn.script("latin")


NUKTA_PAIRS = {(base, mark): composed for base, mark, composed in independent_nukta_pairs()}
# the five Indic blocks, ASCII, the joiners and the nukta pairs
TEXT = st.lists(st.one_of(
    st.sampled_from([chr(cp) for s in tn.SCRIPTS.values()
                     for cp in range(s.block_base, s.block_base + tn.ScriptId.BLOCK_SIZE)]),
    st.characters(max_codepoint=0x7F),
    st.sampled_from([tn.ZWJ, tn.ZWNJ]),
    st.sampled_from([base + mark for base, mark in NUKTA_PAIRS]),
)).map("".join)
ANY_SCRIPT = st.sampled_from(list(tn.SCRIPTS.values()))


class TestFastPathsMatchReferences:
    @settings(max_examples=300, deadline=None)
    @given(TEXT, ANY_SCRIPT, ANY_SCRIPT)
    @example("ಕಖ", tn.KANNADA, tn.KANNADA)
    @example("क़ழ", tn.TAMIL, tn.TAMIL)
    def test_translate_tables_match_the_per_codepoint_loop(self, text, src, dst):
        """Text and passthrough count, same-script calls included."""
        assert tn.transliterate_counted(text, src, dst) == \
            transliterate_counted_loop(text, src, dst)

    @settings(max_examples=300, deadline=None)
    @given(TEXT)
    def test_nukta_regex_matches_the_pairwise_scan(self, text):
        assert tn._compose_nukta(text) == compose_nukta_pairwise(text, NUKTA_PAIRS)
