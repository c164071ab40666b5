import pytest

from codemix.errors import InvalidConfig
from codemix.synth import generate


def generated(pool_a, pool_b, **overrides):
    kwargs = dict(
        lang_a="xa",
        lang_b="xb",
        source_a=pool_a,
        source_b=pool_b,
        n_docs=200,
        mix_rate=0.5,
        tokens_per_doc=12,
        seed=99,
    )
    kwargs.update(overrides)
    return generate(**kwargs)


@pytest.fixture
def pools(synthetic_languages):
    return synthetic_languages["xa"][0], synthetic_languages["xb"][0]


class TestMixSpecValidation:
    def test_overlapping_pools(self, pools):
        pool_a, _ = pools
        with pytest.raises(InvalidConfig, match="^token pools overlap: "):
            generated(pool_a, pool_a[:10] + ("uniqueword",))

    def test_empty_pool(self, pools):
        with pytest.raises(InvalidConfig, match="^source_a is empty$"):
            generated((), pools[1])

    def test_whitespace_in_pool_word(self, pools):
        with pytest.raises(InvalidConfig, match="^source_a contains a non-word entry: 'two words'$"):
            generated(("two words",), pools[1])

    def test_tokens_per_doc_floor(self, pools):
        for value in (3, 12.0, True, "12"):
            with pytest.raises(InvalidConfig, match="^tokens_per_doc must be an integer of at least 4, got "):
                generated(*pools, tokens_per_doc=value)

    def test_mix_rate_bounds(self, pools):
        for value in (1.5, -0.1, float("nan"), "0.5"):
            with pytest.raises(InvalidConfig, match=r"^mix_rate must be in \[0, 1\], got "):
                generated(*pools, mix_rate=value)

    def test_n_docs_positive(self, pools):
        for value in (0, 2.5, True, "5"):
            with pytest.raises(InvalidConfig, match="^n_docs must be an integer of at least 1, got "):
                generated(*pools, n_docs=value)

    def test_seed_unsigned_integer(self, pools):
        for value in (-1, 1.5, True, "1"):
            with pytest.raises(InvalidConfig, match="^seed must be an integer of at least 0, got "):
                generated(*pools, seed=value)

    def test_same_language_twice(self, pools):
        with pytest.raises(InvalidConfig, match="^the two languages must differ$"):
            generated(*pools, lang_b="xa")

    def test_reserved_code(self, pools):
        with pytest.raises(InvalidConfig, match="^'und' is reserved for undetermined text$"):
            generated(*pools, lang_a="und")
        with pytest.raises(InvalidConfig, match="^language code must be 2-8 lowercase ASCII letters, got 5$"):
            generated(*pools, lang_a=5, lang_b="en")


class TestGenerate:
    def test_mix_rate_zero_all_singletons(self, pools):
        docs = generated(*pools, mix_rate=0.0)
        assert all(len(d.gold_tag.langs) == 1 for d in docs)
        seen = {d.gold_tag.render() for d in docs}
        assert seen == {"xa", "xb"}

    def test_mix_rate_one_all_mixed(self, pools):
        pool_a, pool_b = pools
        set_a, set_b = set(pool_a), set(pool_b)
        docs = generated(*pools, mix_rate=1.0)
        for doc in docs:
            assert len(doc.gold_tag.langs) == 2
            tokens = doc.text.split()
            assert any(t in set_a for t in tokens)
            assert any(t in set_b for t in tokens)

    def test_deterministic(self, pools):
        first = generated(*pools)
        second = generated(*pools)
        assert [(d.id, d.text, d.gold_tag) for d in first] == [
            (d.id, d.text, d.gold_tag) for d in second
        ]

    def test_single_switch_point(self, pools):
        pool_a, pool_b = pools
        set_a = set(pool_a)
        for doc in generated(*pools, mix_rate=1.0, n_docs=100):
            membership = [token in set_a for token in doc.text.split()]
            assert membership[0] is True and membership[-1] is False
            # one transition only: prefix of A tokens, suffix of B tokens
            assert sum(1 for x, y in zip(membership, membership[1:]) if x != y) == 1

    def test_tokens_match_gold_tag(self, pools):
        pool_a, pool_b = pools
        set_a, set_b = set(pool_a), set(pool_b)
        for doc in generated(*pools, n_docs=300):
            tokens = doc.text.split()
            assert len(tokens) == 12
            langs = set(doc.gold_tag.langs)
            if langs == {"xa"}:
                assert all(t in set_a for t in tokens)
            elif langs == {"xb"}:
                assert all(t in set_b for t in tokens)
            else:
                assert langs == {"xa", "xb"}
                assert all(t in set_a or t in set_b for t in tokens)

    def test_unique_ids(self, pools):
        docs = generated(*pools, n_docs=500)
        assert len({d.id for d in docs}) == 500

    def test_empirical_mix_fraction(self, pools):
        docs = generated(*pools, n_docs=10000, mix_rate=0.5, seed=424242)
        mixed = sum(1 for d in docs if d.gold_tag.is_multilingual)
        fraction = mixed / 10000
        assert fraction == 0.4996  # frozen regression for this seed
        assert abs(fraction - 0.5) <= 0.02
