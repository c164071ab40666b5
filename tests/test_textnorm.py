import random
import unicodedata

import pytest

from codemix.textnorm import normalize, tokenize
from oracles import normalize_by_category, random_unicode_string


class TestNormalizeExamples:
    def test_clean_input_is_fixed_point(self):
        text = "why ningaphenduli if umuntu ebuza something"
        assert normalize(text) == text

    def test_strips_digits_punctuation_emoji_and_folds_case(self):
        assert normalize("Baby due 2019-07-01!! \U0001F60A") == "baby due"

    def test_empty_input(self):
        assert normalize("") == ""

    def test_whitespace_kinds_collapse_to_single_space(self):
        assert normalize("a\t\n b  c") == "a b c"

    def test_case_folding(self):
        assert normalize("HeLLo WORLD") == "hello world"
        assert normalize("ÉCOLE") == "école"

    def test_all_digit_kinds_removed(self):
        # ASCII, Arabic-Indic, circled, Roman numeral
        assert normalize("12 ٣٤ ⑦ Ⅳ") == ""

    def test_removal_joins_rather_than_splits(self):
        assert normalize("don't") == "dont"
        assert normalize("a\U0001F60Ab") == "ab"

    def test_symbols_and_currency_removed(self):
        assert normalize("€100 + 5% = ?") == ""

    def test_combining_marks_survive(self):
        decomposed = "é tude"
        assert normalize(decomposed) == "é tude"

    def test_interior_punctuation_only_text(self):
        assert normalize("!!! ... ???") == ""


@pytest.fixture(scope="module")
def fuzz_corpus():
    rng = random.Random(7)
    return [random_unicode_string(rng) for _ in range(3000)]


class TestNormalizeProperties:
    def test_idempotent(self, fuzz_corpus):
        for text in fuzz_corpus:
            once = normalize(text)
            assert normalize(once) == once

    def test_output_alphabet(self, fuzz_corpus):
        for text in fuzz_corpus:
            for ch in normalize(text):
                assert ch == " " or unicodedata.category(ch)[0] in ("L", "M")

    def test_no_double_spaces_no_edge_spaces(self, fuzz_corpus):
        for text in fuzz_corpus:
            out = normalize(text)
            assert "  " not in out
            assert out == out.strip()

    def test_letters_preserved_in_order(self, fuzz_corpus):
        for text in fuzz_corpus:
            folded_letters = [
                ch for ch in text.casefold() if unicodedata.category(ch)[0] == "L"
            ]
            out_letters = [
                ch for ch in normalize(text) if unicodedata.category(ch)[0] == "L"
            ]
            assert out_letters == folded_letters

    def test_length_bounded_by_folded_input(self, fuzz_corpus):
        # casefold can expand a codepoint (ß -> ss), so the bound is on the
        # folded length, not the raw length
        for text in fuzz_corpus:
            assert len(normalize(text)) <= len(text.casefold())

    def test_expanding_fold_case(self):
        assert normalize("GROß") == "gross"


class TestNormalizeOracle:
    # Only a sample of Unicode: each codepoint seen stays in the fate table.
    def test_every_codepoint_below_u3000(self):
        for cp in range(0x3000):
            text = f"a{chr(cp)}B{chr(cp)}"
            assert normalize(text) == normalize_by_category(text), hex(cp)

    def test_strings_from_all_planes(self):
        rng = random.Random(2031)
        spaces = " \t\n\r\x0b\x0c\x85\xa0\u2003\u3000"

        def piece():
            kind = rng.random()
            if kind < 0.2:
                return "".join(rng.choice(spaces) for _ in range(rng.randint(1, 4)))
            if kind < 0.35:
                return chr(rng.randint(0x0300, 0x036F))  # combining marks
            if kind < 0.6:
                return rng.choice("aBcDÉßǅİﬁ")
            return chr(rng.randrange(0x110000))

        for _ in range(2000):
            text = "".join(piece() for _ in range(rng.randint(0, 16)))
            assert normalize(text) == normalize_by_category(text), ascii(text)


    def test_words_mixing_letters_marks_and_punctuation(self):
        """Word by word, the all-letter shortcut and the translated words give the oracle's text."""
        rng = random.Random(2029)
        kinds = ["aBcÉßǅİﬁжΣ", "\u0301\u0308\u093f", "!'.,-#", "123٣⑦", "\U0001F600\u200d\x00"]
        spaces = " \t\n\xa0\u2028\u3000"

        def word():
            chosen = rng.sample(kinds, rng.randint(1, 3))
            return "".join(rng.choice(rng.choice(chosen)) for _ in range(rng.randint(1, 6)))

        for _ in range(3000):
            words = [word() for _ in range(rng.randint(0, 6))]
            text = "".join(rng.choice(spaces) + w for w in words) + rng.choice(["", " "])
            assert normalize(text) == normalize_by_category(text), ascii(text)


def test_isalpha_means_every_codepoint_is_a_letter():
    """normalize keeps a word whole when str.isalpha holds, which it does exactly for category L*."""
    assert [cp for cp in range(0x110000)
            if chr(cp).isalpha() != (unicodedata.category(chr(cp))[0] == "L")] == []


def test_tokenize():
    assert tokenize("a b c") == ["a", "b", "c"]
    assert tokenize("") == []
