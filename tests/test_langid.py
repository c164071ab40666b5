import copy
import json
import math
import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from codemix import langid
from codemix.errors import EmptyInput, InvalidConfig, ParseError
from codemix.langid import (
    LanguageProfile,
    ProfileSet,
    extract_ngrams,
    identify,
    load_profile,
    load_profile_set,
    profile_to_json,
    save_profile,
    score,
    train,
)
from codemix.textnorm import normalize
from oracles import ngrams_by_slicing, random_unicode_string, score_by_loops, score_in_gram_order


def random_profile(rng, lang="aa"):
    alphabet = "abcdef "
    lines = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(5, 40)))
        for _ in range(rng.randint(1, 12))
    ]
    n_min = rng.randint(1, 3)
    n_max = rng.randint(n_min, 4)
    alpha = rng.choice([0.1, 0.5, 1.0, 2.0])
    try:
        return train(lines, lang, n_min=n_min, n_max=n_max, alpha=alpha)
    except EmptyInput:
        return train(["fallback text"], lang, n_min=n_min, n_max=n_max, alpha=alpha)


class TestTrain:
    def test_counts_single_order(self):
        profile = train(["aaa aaa"], "aa", n_min=1, n_max=1, alpha=0.5)
        assert profile.counts == {"a": 6, " ": 1}
        assert profile.total_per_order == {1: 7}

    def test_empty_corpus(self):
        with pytest.raises(EmptyInput, match="^no usable text in training corpus for 'en'$"):
            train([], "en")
        with pytest.raises(EmptyInput, match="^no usable text in training corpus for 'en'$"):
            train(["123", "!!!"], "en")

    def test_grams_do_not_cross_lines(self):
        profile = train(["ab", "cd"], "aa", n_min=1, n_max=2)
        assert "bc" not in profile.counts
        assert profile.counts["ab"] == 1
        assert profile.total_per_order == {1: 4, 2: 2}

    def test_lines_are_normalized_first(self):
        profile = train(["A-B!"], "aa", n_min=1, n_max=1)
        assert profile.counts == {"a": 1, "b": 1}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_min": 0, "n_max": 4},
            {"n_min": 2, "n_max": 1},
            {"n_min": 1, "n_max": 7},
            {"alpha": 0.0},
            {"alpha": -1.0},
            {"alpha": math.inf},
            {"alpha": math.nan},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(InvalidConfig):
            train(["some text"], "aa", **kwargs)

    def test_huge_orders_are_given_by_their_size(self):
        with pytest.raises(InvalidConfig, match=r"^need integers 1 <= n_min <= n_max <= 6, got an int of 1329 bits\.\.4$"):
            train(["some text"], "aa", n_min=10**400, n_max=4)
        with pytest.raises(InvalidConfig, match="^smoothing constant must be positive and finite, got an int of 1329 bits$"):
            train(["some text"], "aa", alpha=10**400)

    @pytest.mark.parametrize("lang", ["und", "EN", "e", "en-us", "a" * 9])
    def test_invalid_lang(self, lang):
        with pytest.raises(InvalidConfig):
            train(["some text"], lang)

    @pytest.mark.parametrize(
        "lang, n_min, n_max, alpha",
        [
            ("xa", 1, 3, math.nan),
            ("xa", 1, 3, 0.0),
            ("xa", 1, 3, -0.5),
            ("xa", 3, 1, 0.5),
            ("und", 1, 3, 0.5),
        ],
        ids=["alpha-nan", "alpha-zero", "alpha-negative", "n_min-above-n_max", "und"],
    )
    def test_profile_constructor_checks_the_model(self, lang, n_min, n_max, alpha):
        with pytest.raises(InvalidConfig):
            LanguageProfile(lang, n_min, n_max, alpha, {"a": 1})

    @pytest.mark.parametrize(
        "args",
        [
            ("xa", 1, 3, 0.5, {1: 1}),
            ("xa", 1, 3, 0.5, {("a",): 1}),
            ("xa", 1.5, 3, 0.5, {"a": 1}),
            ("xa", 1, 3.0, 0.5, {"a": 1}),
            ("xa", True, 3, 0.5, {"a": 1}),
            ("xa", 1, 3, True, {"a": 1}),
            ("xa", 1, 3, "0.5", {"a": 1}),
            ("xa", 1, 3, 10**400, {"a": 1}),
            ("xa", 1, 3, 1e308, {"a": 1, "b": 1}),
            ("xa", 1, 3, 5e-324, {"a": 3}),
            ("xa", 1, 3, 0.5, {"a": 10**400}),
            ("xa", 1, 3, 0.5, [["a", 1]]),
            ("xa", 1, 3, 0.5, None),
            (5, 1, 3, 0.5, {"a": 1}),
            (None, 1, 3, 0.5, {"a": 1}),
            ("xa\n", 1, 3, 0.5, {"a": 1}),
        ],
        ids=[
            "int-gram", "tuple-gram", "float-n_min", "float-n_max", "bool-n_min", "bool-alpha",
            "str-alpha", "int-alpha-past-float", "alpha-overflows-denominator", "alpha-underflows",
            "count-past-float", "list-counts", "no-counts", "int-lang", "no-lang", "lang-newline",
        ],
    )
    def test_profile_constructor_checks_every_type(self, args):
        with pytest.raises(InvalidConfig):
            LanguageProfile(*args)

    def test_accepted_profiles_save_load_and_score(self, tmp_path):
        # a quarter of the draws break one field; whatever the constructor
        # accepts, the file format carries and the scorer can use
        rng = random.Random(2029)
        bad = {
            "lang": ["und", "x", "XA", "xa\n", 5, None],
            "n_min": [0, 7, True, 2.0, None, "1"],
            "n_max": [0, 7, True, 2.0, None, "1"],
            "alpha": [5e-324, 1e308, 10**400, 0, -1, True, math.inf, math.nan, None, "0.5"],
            "counts": [None, [], "a"],
        }
        path = tmp_path / "p.profile"
        accepted = 0
        for _ in range(600):
            n_min = rng.randint(1, 6)
            n_max = rng.randint(n_min, 6)
            grams = extract_ngrams(random_unicode_string(rng, 20), n_min, n_max)
            args = {
                "lang": rng.choice(["xa", "zu", "abcdefgh"]),
                "n_min": n_min,
                "n_max": n_max,
                "alpha": rng.choice([0.5, 1, 3, 1e-300, 1e300, 10**300]),
                "counts": {
                    gram: rng.choice([0, 1, 5, 10**30, 10**300] if rng.random() < 0.99 else [-1, True, 1.5])
                    for gram in grams
                },
            }
            if rng.random() < 0.25:
                key = rng.choice(list(bad))
                args[key] = rng.choice(bad[key])
            try:
                profile = LanguageProfile(**args)
            except InvalidConfig:
                continue
            accepted += 1
            save_profile(profile, path)
            assert load_profile(path) == profile
            assert math.isfinite(score("a" * profile.n_max, ProfileSet({profile.lang: profile}))[profile.lang])
        assert 300 <= accepted <= 550

    def test_totals_consistent(self):
        rng = random.Random(11)
        for _ in range(25):
            profile = random_profile(rng)
            recomputed = {n: 0 for n in range(profile.n_min, profile.n_max + 1)}
            for gram, c in profile.counts.items():
                assert profile.n_min <= len(gram) <= profile.n_max
                recomputed[len(gram)] += c
            assert recomputed == profile.total_per_order


def test_extract_ngrams_matches_slicing():
    """Order n from order n - 1 plus the next codepoint equals slicing, also for texts shorter than n."""
    rng = random.Random(17)
    texts = ["", "a", "ab", "abc", "a b", "ñ̃x", "abcdef", "abcdefg"]
    texts += [random_unicode_string(rng, 14) for _ in range(40)]
    for n_min in range(1, 7):
        for n_max in range(n_min, 7):
            for text in texts:
                assert extract_ngrams(text, n_min, n_max) == ngrams_by_slicing(text, n_min, n_max)


@pytest.fixture(scope="module")
def tiny():
    return train(["aaa aaa"], "aa", n_min=1, n_max=1, alpha=0.5)


class TestScore:
    def test_seen_gram(self, tiny):
        # (6 + 0.5) / (7 + 0.5 * 3) with vocabulary {a, space} + 1 unseen slot
        assert score("a", ProfileSet({"aa": tiny}))["aa"] == pytest.approx(-0.2682639865946794, abs=1e-12)

    def test_unseen_gram(self, tiny):
        assert score("q", ProfileSet({"aa": tiny}))["aa"] == pytest.approx(-2.833213344056216, abs=1e-12)

    def test_empty_text(self, tiny):
        with pytest.raises(EmptyInput, match="^text yields no n-grams to score$"):
            score("", ProfileSet({"aa": tiny}))

    def test_text_shorter_than_n_min(self):
        profile = train(["abcdef"], "aa", n_min=3, n_max=4)
        with pytest.raises(EmptyInput, match="^text yields no n-grams to score$"):
            score("ab", ProfileSet({"aa": profile}))

    def test_matches_loop_oracle(self):
        rng = random.Random(23)
        for _ in range(60):
            profile = random_profile(rng)
            text = "".join(rng.choice("abcdefgh ") for _ in range(rng.randint(profile.n_min, 30)))
            text = " ".join(text.split())
            if len(text) < profile.n_min:
                text = "a" * profile.n_min
            assert score(text, ProfileSet({"aa": profile}))["aa"] == pytest.approx(
                score_by_loops(text, profile), abs=1e-12
            )

    def test_log_prob_memo_is_bounded_by_the_profile(self, synthetic_languages, overlapping_languages, tmp_path):
        # a gram's log-prob is memoised by (order, training count) and each
        # profile's table holds its seen grams, so no amount of scored text
        # grows either past what the profile holds; the table is built on the
        # profile's first score, so train and load_profile pay nothing for it
        sources = {"xa": synthetic_languages["xa"], "xb": overlapping_languages["xb"]}
        profiles = ProfileSet({lang: train(lines, lang) for lang, (_, lines) in sources.items()})
        for p in profiles.profiles.values():
            save_profile(p, tmp_path / f"{p.lang}.profile")
            assert "_table" not in vars(p)
            assert "_table" not in vars(load_profile(tmp_path / f"{p.lang}.profile"))
        words = [word for pool, _ in sources.values() for word in pool]
        rng = random.Random(2030)
        scored = 0
        for _ in range(2000):
            text = normalize(" ".join(
                random_unicode_string(rng) if rng.random() < 0.5 else rng.choice(words)
                for _ in range(rng.randint(1, 6))
            ))
            if len(text) >= profiles.n_min:
                score(text, profiles)
                scored += 1
        assert scored >= 1500
        for p in profiles.profiles.values():
            pairs = {(len(gram), c) for gram, c in p.counts.items()}
            unseen = {(n, 0) for n in range(p.n_min, p.n_max + 1)}
            assert set(p._log_prob) <= pairs | unseen
            assert len(p._log_prob) <= len(pairs) + len(unseen)
            assert p._table.keys() == p.counts.keys()
            assert all(p._table[gram] == p._log_prob[len(gram), c] for gram, c in p.counts.items())

    def test_threads_filling_shared_memos_agree(self, overlapping_languages):
        # the memos fill under contention; each entry is a pure function of
        # its key, so every thread must read the single-threaded scores
        def fresh():
            return ProfileSet({lang: train(lines, lang) for lang, (_, lines) in overlapping_languages.items()})

        texts = [normalize(line) for _, lines in overlapping_languages.values() for line in lines[:30]]
        alone = fresh()
        expected = [score(text, alone) for text in texts]
        shared = fresh()
        # the tables are built under contention too: cached_property locks up to 3.11, not from 3.12 on
        assert not any("_table" in vars(p) for p in shared.profiles.values())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda: [score(text, shared) for text in texts]) for _ in range(8)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 8


class TestIdentify:
    def test_likelihood_dominance(self, trained_profiles, synthetic_languages):
        pool_a, _ = synthetic_languages["xa"]
        top = identify(pool_a[0], trained_profiles)[0]
        assert top.lang == "xa"

    def test_dominance_agrees_with_score_oracle(self):
        profiles = ProfileSet(
            {
                "aa": train(["aaaa aaaa aaaa"], "aa"),
                "zz": train(["zzzz zzzz zzzz"], "zz"),
            }
        )
        predictions = identify("aaaa", profiles)
        assert predictions[0].lang == "aa"
        by_oracle = {
            lang: score_by_loops("aaaa", p) for lang, p in profiles.profiles.items()
        }
        assert max(by_oracle, key=by_oracle.get) == "aa"
        for p in predictions:
            assert p.avg_log_likelihood == pytest.approx(by_oracle[p.lang], abs=1e-12)

    def test_below_min_chars_is_und(self, trained_profiles):
        assert identify("!!", trained_profiles, min_chars=3) == [
            langid.Prediction("und", 0.0, 1.0)
        ]
        assert identify("ab", trained_profiles, min_chars=3)[0].lang == "und"

    @pytest.mark.parametrize("min_chars", ["3", None, 1.5, True])
    def test_min_chars_must_be_an_int(self, trained_profiles, min_chars):
        with pytest.raises(InvalidConfig):
            identify("abc abd", trained_profiles, min_chars=min_chars)

    def test_empty_profileset(self):
        with pytest.raises(EmptyInput, match="^no language profiles given$"):
            ProfileSet({})

    def test_tie_break_is_lexicographic(self):
        profile = train(["shared corpus text"], "xx")
        twin = LanguageProfile(
            lang="ww",
            n_min=profile.n_min,
            n_max=profile.n_max,
            alpha=profile.alpha,
            counts=dict(profile.counts),
        )
        predictions = identify("shared corpus", ProfileSet({"xx": profile, "ww": twin}))
        assert [p.lang for p in predictions] == ["ww", "xx"]
        assert predictions[0].confidence == pytest.approx(0.5, abs=1e-12)

    def test_confidences_sum_to_one(self, trained_profiles, synthetic_languages):
        rng = random.Random(5)
        pool_a, _ = synthetic_languages["xa"]
        pool_b, _ = synthetic_languages["xb"]
        for _ in range(50):
            words = [rng.choice(pool_a if rng.random() < 0.5 else pool_b) for _ in range(4)]
            predictions = identify(" ".join(words), trained_profiles)
            assert sum(p.confidence for p in predictions) == pytest.approx(1.0, abs=1e-9)
            ranked = sorted(predictions, key=lambda p: -p.avg_log_likelihood)
            assert [p.lang for p in ranked] == [p.lang for p in predictions]

    def test_determinism(self, trained_profiles, synthetic_languages):
        pool_a, _ = synthetic_languages["xa"]
        text = " ".join(pool_a[:5])
        assert identify(text, trained_profiles) == identify(text, trained_profiles)

    def test_score_independent_of_other_profiles(self, trained_profiles, synthetic_languages):
        pool_a, lines_a = synthetic_languages["xa"]
        extra = train(["completely different words here"], "zz")
        bigger = ProfileSet({**trained_profiles.profiles, "zz": extra})
        text = " ".join(pool_a[:4])
        small = {p.lang: p.avg_log_likelihood for p in identify(text, trained_profiles)}
        large = {p.lang: p.avg_log_likelihood for p in identify(text, bigger)}
        for lang, value in small.items():
            assert large[lang] == value

    def test_ranked_scores_are_bit_equal_to_score(self, synthetic_languages, overlapping_languages):
        # the reference for any faster scorer: not one bit of drift from the
        # gram-by-gram sum, also for an int alpha (xd)
        sources = {"xa": synthetic_languages["xa"], "xb": synthetic_languages["xb"],
                   "xc": overlapping_languages["xa"], "xd": overlapping_languages["xb"]}
        profiles = ProfileSet({
            lang: train(lines, lang, alpha=1 if lang == "xd" else langid.DEFAULT_ALPHA)
            for lang, (_, lines) in sources.items()
        })
        assert type(profiles.profiles["xd"].alpha) is int
        words = [word for pool, _ in sources.values() for word in pool]
        rng = random.Random(2028)
        compared = 0
        for _ in range(300):
            text = " ".join(
                random_unicode_string(rng) if rng.random() < 0.3 else rng.choice(words)
                for _ in range(rng.randint(1, 6))
            )
            for p in identify(text, profiles):
                if p.lang != "und":
                    expected = score_in_gram_order(normalize(text), profiles.profiles[p.lang])
                    assert p.avg_log_likelihood == expected
                    compared += 1
        assert compared >= 800

    def test_self_consistency(self, trained_profiles, synthetic_languages):
        _, lines_a = synthetic_languages["xa"]
        for line in lines_a[:20]:
            scores = score(line, trained_profiles)
            assert scores["xa"] >= scores["xb"]


class TestProfileSet:
    def test_mismatched_orders(self):
        a = train(["text one"], "aa", n_min=1, n_max=2)
        b = train(["text two"], "bb", n_min=1, n_max=3)
        with pytest.raises(InvalidConfig):
            ProfileSet({"aa": a, "bb": b})

    def test_key_lang_mismatch(self):
        a = train(["text one"], "aa")
        with pytest.raises(InvalidConfig):
            ProfileSet({"bb": a})
        with pytest.raises(InvalidConfig, match="^profile keyed 'en' is a str, not a profile$"):
            ProfileSet({"en": "x"})


class TestProfileIO:
    def test_round_trip_identity(self, tmp_path):
        profile = train(["umntwana uyakhala kakhulu", "why is this happening"], "zu")
        path = tmp_path / "zu.profile"
        save_profile(profile, path)
        loaded = load_profile(path)
        assert loaded == profile
        assert loaded != LanguageProfile("zu", 1, 4, 0.5, {**profile.counts, "u": profile.counts["u"] + 1})
        assert loaded != LanguageProfile("zu", 1, 4, 0.25, profile.counts)
        assert loaded != LanguageProfile("xh", 1, 4, 0.5, profile.counts)
        assert (loaded == profile_to_json(profile)) is False

    def test_round_trip_bytes_stable(self, tmp_path):
        rng = random.Random(31)
        for i in range(30):
            profile = random_profile(rng)
            path = tmp_path / f"p{i}.profile"
            save_profile(profile, path)
            first = path.read_bytes()
            save_profile(load_profile(path), path)
            assert path.read_bytes() == first

    def test_unencodable_gram_names_the_path(self, tmp_path):
        # a regular file is replaced on success; /dev/null is written in place
        for path in (tmp_path / "xa.profile", "/dev/null"):
            with pytest.raises(UnicodeError) as excinfo:
                save_profile(LanguageProfile("xa", 1, 1, 0.5, {"\ud800": 1}), path)
            assert str(excinfo.value).startswith(f"{path}: ")
        assert os.listdir(tmp_path) == []

    def test_version_mismatch(self, tmp_path):
        profile = train(["some text"], "aa")
        doc = profile_to_json(profile).replace('"version": 1', '"version": 2')
        path = tmp_path / "bad.profile"
        path.write_text(doc, encoding="utf-8")
        with pytest.raises(ParseError, match="bad.profile: unsupported profile version 2, expected 1$"):
            load_profile(path)

    def test_inconsistent_totals(self, tmp_path):
        profile = train(["aaa aaa"], "aa", n_min=1, n_max=1)
        doc = profile_to_json(profile).replace('"1": 7', '"1": 8')
        path = tmp_path / "bad.profile"
        path.write_text(doc, encoding="utf-8")
        with pytest.raises(ParseError, match="bad.profile: per-order totals disagree with count table$"):
            load_profile(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("lang", 5),
            ("counts", []),
            ("version", True),
            ("n_min", 1.9),
            ("alpha", math.inf),
            ("alpha", math.nan),
            ("a gram's count", True),
            ("a gram's count", 1.5),
            ("a gram's count", -1),
        ],
    )
    def test_strict_document(self, tmp_path, key, value):
        profile = train(["umntwana uyakhala kakhulu"], "zu")
        doc = json.loads(profile_to_json(profile))
        if key == "a gram's count":
            # a gram seen once, so 1 == True == int(1.5) keeps the totals in agreement
            once = next(gram for gram, c in profile.counts.items() if c == 1)
            doc["counts"][once] = value
        else:
            doc[key] = value
        path = tmp_path / "zu.profile"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rule = {
            "lang": "language code must be",
            "counts": "count table must be a dict",
            "version": "unsupported profile version True",
            "n_min": "need integers 1 <= n_min",
            "alpha": "not valid JSON: non-finite number",  # the strict decoder rejects it first
            "a gram's count": "count table entry .* out of bounds",
        }[key]
        with pytest.raises(ParseError, match=f"zu.profile: {rule}"):
            load_profile(path)

    def test_mutated_documents_load_or_raise_profile_error(self, tmp_path):
        # type swaps, deleted and renamed keys, huge ints and nested values
        # anywhere in the document, its counts or its totals
        rng = random.Random(2030)
        base = json.loads(profile_to_json(train(["umntwana uyakhala", "why is this"], "zu", n_max=3)))
        values = [
            None, True, False, 0, 1, 2, -1, 1.5, 1e308, 5e-324, 10**400, -(10**400),
            "", "zu", "und", "1", [], [1], {}, {"1": 1}, {"a": 1}, [[[{}]]], {"a": {"b": [1]}},
        ]
        path = tmp_path / "p.profile"
        loaded = failed = 0
        for _ in range(2500):
            doc = copy.deepcopy(base)
            for _ in range(rng.randint(1, 3)):
                target = rng.choice([doc, doc.get("counts"), doc.get("total_per_order")])
                if not isinstance(target, dict):
                    target = doc
                key = rng.choice([*target, "extra"])
                action = rng.random()
                if action < 0.2:
                    target.pop(key, None)
                elif action < 0.3:
                    target[rng.choice(["", "abcdefg", "ab", f"{key}x"])] = target.pop(key, 1)
                else:
                    target[key] = rng.choice(values)
            path.write_text(json.dumps(doc), encoding="utf-8")
            try:
                profile = load_profile(path)
            except ParseError:
                failed += 1
                continue
            loaded += 1
            save_profile(profile, path)
            assert load_profile(path) == profile
            assert math.isfinite(score("zu", ProfileSet({profile.lang: profile}))[profile.lang])
        assert loaded >= 50 and failed >= 2000

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.profile"
        path.write_text("not a profile", encoding="utf-8")
        with pytest.raises(ParseError, match="bad.profile: not valid JSON: "):
            load_profile(path)

    @pytest.mark.parametrize(
        "raw",
        [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
        ids=["invalid-utf8", "deeply-nested"],
    )
    def test_undecodable_json(self, tmp_path, raw):
        path = tmp_path / "bad.profile"
        path.write_bytes(raw)
        with pytest.raises(ParseError, match="bad.profile"):
            load_profile(path)

    def test_load_profile_set(self, tmp_path):
        for lang, text in [("aa", "first corpus"), ("bb", "second corpus")]:
            save_profile(train([text], lang), tmp_path / f"{lang}.profile")
        profiles = load_profile_set(tmp_path)
        assert set(profiles.profiles) == {"aa", "bb"}

    def test_load_profile_set_empty_dir(self, tmp_path):
        with pytest.raises(EmptyInput, match=r"^no \.profile files in "):
            load_profile_set(tmp_path)

    def test_load_profile_set_duplicate_lang(self, tmp_path):
        save_profile(train(["first corpus"], "aa"), tmp_path / "one.profile")
        save_profile(train(["second corpus"], "aa"), tmp_path / "two.profile")
        with pytest.raises(ParseError, match="two.profile: duplicate profile for 'aa'$"):
            load_profile_set(tmp_path)
