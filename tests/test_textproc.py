from __future__ import annotations

import io
import logging
import random

import pytest
from hypothesis import assume, given, strategies as st

from oracles import bpe_learn_oracle
from stapleforge.corpus import is_punct, normalize
from stapleforge.errors import ParseError, ValidationError
from stapleforge.textproc import (
    BpeModel,
    bpe_apply,
    bpe_decode,
    bpe_learn,
    load_bpe,
    save_bpe,
    sentence_tokens,
    tokenize,
)

# what a learned merge can hold: no whitespace or control characters, which
# tokenization splits on, so no tab or line break of the model file
symbols = st.text(
    alphabet=st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp")), min_size=1
)

BPE_FIXTURE = [["low"]] * 5 + [["lower"]] * 2 + [["newest"]] * 6 + [["widest"]] * 3


class TestTokenize:
    def test_sentence_tokens_are_the_canonical_words(self):
        assert sentence_tokens("Is my explanation clear?") == ["is", "my", "explanation", "clear"]
        assert sentence_tokens("Você está  tão linda!") == ["você", "está", "tão", "linda"]
        assert sentence_tokens("well-known don't") == ["wellknown", "dont"]
        assert sentence_tokens("¿?!") == []

    @given(st.text())
    def test_content_preserved_and_no_empty_tokens(self, text):
        tokens = tokenize(text)
        assert all(tokens)
        assert not any(" " in t or "\t" in t for t in tokens)
        assert "".join(tokens) == "".join(text.split())

    @given(st.text())
    def test_canonical_text_is_space_separated_words(self, text):
        """What lets the tokenizer be a whitespace split and its inverse a
        join with spaces: canonical text holds no punctuation and single
        spaces only between words."""
        canonical = normalize(text)
        assert not any(is_punct(ch) for ch in canonical)
        assert canonical == " ".join(canonical.split())
        assert sentence_tokens(text) == canonical.split()

    @given(st.lists(st.text()), st.randoms(use_true_random=False))
    def test_joined_model_tokens_are_canonical(self, texts, rng):
        """A candidate is decoded model words, which come from sentence_tokens,
        joined with spaces in any order; such a sentence is its own canonical
        form, which is what lets the methods and the scorer compare candidates
        as plain strings."""
        tokens = [tok for text in texts for tok in sentence_tokens(text)]
        rng.shuffle(tokens)
        candidate = " ".join(tokens)
        assert normalize(candidate) == candidate


class TestBpeLearn:
    def test_fixture_first_two_merges(self):
        model = bpe_learn(BPE_FIXTURE, 2)
        assert model.merges == (("e", "s"), ("es", "t</w>"))

    def test_zero_merges(self):
        assert bpe_learn(BPE_FIXTURE, 0).merges == ()

    def test_single_word_eow_placement(self):
        model = bpe_learn([["aa"]], 1)
        assert model.merges == (("a", "a</w>"),)

    def test_merge_count_capped_by_available_pairs(self):
        model = bpe_learn([["ab"]], 100)
        assert model.merges == (("a", "b</w>"),)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            bpe_learn([], 5)

    def test_matches_oracle_on_fixture(self):
        for k in (0, 1, 2, 5, 50):
            assert list(bpe_learn(BPE_FIXTURE, k).merges) == bpe_learn_oracle(BPE_FIXTURE, k)

    @pytest.mark.parametrize("alphabets, max_types, max_len, max_freq, merges", [
        (["ab", "abc", "abcd"], 30, 6, 9, (0, 40)),
        # many types over large alphabets: many pairs whose counts change
        (["abcdef", "abcdefgh"], 80, 8, 9, (0, 80)),
        # past exhaustion (at most 40 * 7 merges exist): every stale entry is
        # popped before the heap empties
        (["ab", "abcd", "abcdefgh"], 40, 8, 9, (300, 400)),
        # counts of 1 or 2: most merges are picked from ties
        (["abc", "abcdefgh"], 80, 8, 2, (0, 200)),
    ], ids=["small", "wide", "exhausted", "ties"])
    def test_matches_oracle_on_random_corpora(self, alphabets, max_types, max_len, max_freq,
                                              merges):
        rng = random.Random(20847)
        for _ in range(30):
            alphabet = rng.choice(alphabets)
            types = rng.randint(1, max_types)
            corpus = [
                ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))]
                * rng.randint(1, max_freq)
                for _ in range(types)
            ]
            k = rng.randint(*merges)
            assert list(bpe_learn(corpus, k).merges) == bpe_learn_oracle(corpus, k)


class TestBpeApply:
    def test_rank_order_application(self):
        model = BpeModel(merges=(("e", "s"), ("es", "t</w>")))
        assert bpe_apply(model, ["newest"]) == ["n@@", "e@@", "w@@", "est"]

    def test_character_fallback(self):
        assert bpe_apply(BpeModel(merges=()), ["ab"]) == ["a@@", "b"]

    def test_vocabulary_closure_under_merge_prefix(self):
        # a model restricted to its first k' merges never emits a symbol
        # outside the full model's vocabulary plus bare characters
        model = bpe_learn(BPE_FIXTURE, 50)
        chars = {c for seq in BPE_FIXTURE for w in seq for c in w} | set("lowest")
        full_vocab = {left + right for left, right in model.merges}
        full_vocab |= chars | {c + "</w>" for c in chars}
        for k in range(len(model.merges) + 1):
            restricted = BpeModel(merges=model.merges[:k])
            for word in ("low", "lower", "newest", "widest", "lowest"):
                subwords = bpe_apply(restricted, [word])
                internal = [s[:-2] for s in subwords[:-1]] + [subwords[-1] + "</w>"]
                assert all(sym in full_vocab for sym in internal)


class TestBpeDecode:
    def test_marker_contract(self):
        assert bpe_decode(["n@@", "e@@", "w@@", "est"]) == ["newest"]
        assert bpe_decode(["a", "b"]) == ["a", "b"]

    def test_dangling_continuation_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="stapleforge.textproc"):
            assert bpe_decode(["x@@"]) == ["x"]
        assert any("dangling" in r.message for r in caplog.records)

    @given(
        st.lists(st.text(alphabet="abcde@#", min_size=1, max_size=8), min_size=0, max_size=6),
        st.integers(min_value=0, max_value=30),
    )
    def test_round_trip_identity(self, tokens, num_merges):
        # tokens ending in the reserved "@@" suffix are outside the contract
        assume(not any(t.endswith("@@") for t in tokens))
        corpus = [tokens] if tokens else [["seed"]]
        model = bpe_learn(corpus, num_merges)
        assert bpe_decode(bpe_apply(model, tokens)) == tokens

    def test_token_ending_in_marker_warns(self, caplog):
        model = bpe_learn([["@@"]], 1)
        with caplog.at_level(logging.WARNING, logger="stapleforge.textproc"):
            bpe_apply(model, ["@@"])
        assert any("cannot invert" in r.message for r in caplog.records)


class TestModelFile:
    def test_round_trip(self):
        model = bpe_learn(BPE_FIXTURE, 5)
        buf = io.StringIO()
        save_bpe(model, buf)
        assert load_bpe(buf.getvalue()) == model
        assert buf.getvalue().splitlines()[0] == "#bpe v1 eow=</w>"

    @given(st.lists(st.tuples(symbols, symbols), unique=True, max_size=12))
    def test_load_inverts_save(self, merges):
        model = BpeModel(merges=tuple(merges))
        buf = io.StringIO()
        save_bpe(model, buf)
        assert load_bpe(buf.getvalue()) == model

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError):
            load_bpe("not a model\ne\ts\n")

    def test_rows_follow_the_one_line_rule(self):
        """A leading byte-order mark is dropped, and a Unicode line separator
        ends no row: it used to split this row into two merges."""
        assert load_bpe("\ufeff#bpe v1 eow=</w>\r\ne\ts\r\n") == BpeModel(merges=(("e", "s"),))
        with pytest.raises(ParseError, match="line 2: expected 'left<TAB>right'"):
            load_bpe("#bpe v1 eow=</w>\ne\ts\u2028l\to\n")
