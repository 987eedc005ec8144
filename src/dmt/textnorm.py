"""Indic text normalization, tokenization, and offset transliteration.

Transliteration maps codepoints between the structurally-aligned 128-slot
Unicode Indic blocks by constant offset; everything outside the source
block (ASCII, digits, punctuation) passes through unchanged.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass

__all__ = [
    "ScriptId", "TokenizedSentence", "SCRIPTS", "LANG_SCRIPT", "script",
    "script_for_lang",
    "normalize", "tokenize", "detokenize",
    "transliterate", "transliterate_counted", "detransliterate",
]

ZWNJ = "‌"
ZWJ = "‍"
DANDA = "।"
DOUBLE_DANDA = "॥"


@dataclass(frozen=True)
class ScriptId:
    """An Indic script and the codepoint where its Unicode block starts."""
    name: str
    block_base: int

    BLOCK_SIZE = 128

    def contains(self, cp: int) -> bool:
        return self.block_base <= cp < self.block_base + self.BLOCK_SIZE


DEVANAGARI = ScriptId("Devanagari", 0x0900)
TAMIL = ScriptId("Tamil", 0x0B80)
TELUGU = ScriptId("Telugu", 0x0C00)
KANNADA = ScriptId("Kannada", 0x0C80)
MALAYALAM = ScriptId("Malayalam", 0x0D00)

SCRIPTS = {s.name.lower(): s for s in (DEVANAGARI, TAMIL, TELUGU, KANNADA, MALAYALAM)}

# The languages the toolkit knows, each with its script (corpus.LanguageTag
# admits exactly these). Tulu corpora are written in Kannada script;
# Sanskrit is already Devanagari.
LANG_SCRIPT = {
    "kn": KANNADA,
    "ml": MALAYALAM,
    "ta": TAMIL,
    "te": TELUGU,
    "tu": KANNADA,
    "sn": DEVANAGARI,
}


def script(name: str) -> ScriptId:
    key = name.lower()
    if key not in SCRIPTS:
        raise KeyError(f"unknown script {name!r}; known: {sorted(SCRIPTS)}")
    return SCRIPTS[key]


def script_for_lang(code: str) -> ScriptId:
    if code not in LANG_SCRIPT:
        raise KeyError(f"no script registered for language {code!r}")
    return LANG_SCRIPT[code]


@dataclass(frozen=True)
class TokenizedSentence:
    tokens: tuple

    def __post_init__(self):
        for tok in self.tokens:
            if not tok or any(ch.isspace() for ch in tok):
                raise ValueError(f"bad token {tok!r}")

    def __iter__(self):
        return iter(self.tokens)

    def __len__(self):
        return len(self.tokens)

    def text(self) -> str:
        return " ".join(self.tokens)


def _build_nukta_table() -> dict:
    """Map (base, nukta) pairs to their precomposed codepoint.

    Unicode lists these precomposed letters as composition exclusions, so
    NFC leaves the two-codepoint form; we fold them back to one codepoint
    to cut token sparsity.
    """
    table = {}
    for base in (0x0900, 0x0980, 0x0A00, 0x0B00, 0x0B80, 0x0C00, 0x0C80, 0x0D00):
        for cp in range(base, base + ScriptId.BLOCK_SIZE):
            decomp = unicodedata.decomposition(chr(cp))
            if not decomp or decomp.startswith("<"):
                continue
            parts = decomp.split()
            if len(parts) == 2 and "NUKTA" in unicodedata.name(chr(int(parts[1], 16)), ""):
                table[(chr(int(parts[0], 16)), chr(int(parts[1], 16)))] = chr(cp)
    return table


_NUKTA_COMPOSE = _build_nukta_table()


def _compose_nukta(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        if i + 1 < len(text) and (text[i], text[i + 1]) in _NUKTA_COMPOSE:
            out.append(_NUKTA_COMPOSE[(text[i], text[i + 1])])
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def normalize(text: str, lang: str = None, keep_joiners: bool = False) -> str:
    """Canonical composition, joiner removal, and whitespace cleanup.

    Idempotent; lang is accepted for interface symmetry (the rules are
    script-independent).
    """
    text = unicodedata.normalize("NFC", text)
    if not keep_joiners:
        text = text.replace(ZWJ, "").replace(ZWNJ, "")
    text = _compose_nukta(text)
    return " ".join(text.split())


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P") or ch in (DANDA, DOUBLE_DANDA)


def tokenize(text: str) -> TokenizedSentence:
    """Whitespace split with punctuation detached as standalone tokens.

    A period between two digits stays inside the token so decimal numbers
    survive as single tokens.
    """
    tokens = []
    for chunk in text.split():
        buf = []
        for i, ch in enumerate(chunk):
            if _is_punct(ch):
                decimal_dot = (ch == "." and 0 < i < len(chunk) - 1
                               and chunk[i - 1].isdigit() and chunk[i + 1].isdigit())
                if decimal_dot:
                    buf.append(ch)
                    continue
                if buf:
                    tokens.append("".join(buf))
                    buf = []
                tokens.append(ch)
            else:
                buf.append(ch)
        if buf:
            tokens.append("".join(buf))
    return TokenizedSentence(tuple(tokens))


# punctuation that glues to the preceding token on detokenization
_NO_SPACE_BEFORE = set(".,;:!?%)]}»" + DANDA + DOUBLE_DANDA + "’”'\"")
# punctuation that glues to the following token
_NO_SPACE_AFTER = set("([{«‘“")


def detokenize(tokens) -> str:
    """Join tokens, re-attaching punctuation to its neighbor."""
    toks = list(tokens.tokens if isinstance(tokens, TokenizedSentence) else tokens)
    out = []
    glue_next = False
    for tok in toks:
        if not out:
            out.append(tok)
        elif glue_next or (len(tok) == 1 and tok in _NO_SPACE_BEFORE):
            out[-1] = out[-1] + tok
        else:
            out.append(tok)
        glue_next = len(tok) == 1 and tok in _NO_SPACE_AFTER
    return " ".join(out)


def transliterate_counted(text: str, src: ScriptId, dst: ScriptId):
    """Offset-map codepoints from src's block to dst's block.

    Returns (text, passthrough_count) where the count is the number of
    in-block codepoints left unchanged because the corresponding slot in
    the target block is unassigned.
    """
    if src.block_base == dst.block_base:
        return text, 0
    out = []
    passthrough = 0
    for ch in text:
        cp = ord(ch)
        if src.contains(cp):
            target = cp - src.block_base + dst.block_base
            if unicodedata.category(chr(target)) != "Cn":
                out.append(chr(target))
            else:
                out.append(ch)
                passthrough += 1
        else:
            out.append(ch)
    return "".join(out), passthrough


def transliterate(text: str, src: ScriptId, dst: ScriptId) -> str:
    return transliterate_counted(text, src, dst)[0]


def detransliterate(text: str, original: ScriptId) -> str:
    """Map Devanagari-block codepoints back to the original script."""
    return transliterate(text, DEVANAGARI, original)
