from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import decoder_of
from stapleforge.corpus import Prompt, normalize
from stapleforge.errors import ValidationError
from stapleforge.methods import (
    METHODS,
    Decoder,
    MethodParams,
    dedup,
    multi_checkpoint_predict,
    nbest_predict,
    paraphrase_predict,
    predict,
)
from stapleforge.metrics import score_corpus
from stapleforge.textproc import sentence_tokens
from stapleforge.translator import (
    BOS,
    BigramLm,
    Checkpoint,
    DecodeParams,
    build_bigram_lm,
    decode_nbest,
)


def params(n=10, n_prime=3, m=1, top_k=8):
    return MethodParams(n=n, n_prime=n_prime, m=m, top_k_lexicon=top_k)


def decoders(series):
    return [decoder_of(ckpt) for ckpt in series]


@pytest.fixture(scope="module")
def identity_pair():
    """Opposite-direction checkpoints whose lexicons are the identity map."""
    lm = build_bigram_lm([["u", "v"], ["w"]], alpha=0.1)
    lexicon = {t: {t: 1.0} for t in ("u", "v", "w")}

    def ckpt(direction):
        return Checkpoint(
            iteration=1,
            lexicon=lexicon,
            lm=lm,
            corpus_loglik=-1.0,
            direction=direction,
        )

    return decoder_of(ckpt("fwd")), decoder_of(ckpt("bwd"))


class TestDecoder:
    @pytest.fixture()
    def counted(self, toy_fwd_series, monkeypatch):
        """A decoder over the newest toy checkpoint, with its loads and decodes counted."""
        calls = {"load": 0, "decode": 0}
        ckpt = toy_fwd_series[-1]

        def load():
            calls["load"] += 1
            return ckpt

        def decode(*args):
            calls["decode"] += 1
            return decode_nbest(*args)

        monkeypatch.setattr("stapleforge.methods.decode_nbest", decode)
        return Decoder(load, "fwd"), ckpt, calls

    def test_each_request_decodes_once(self, counted):
        decoder, ckpt, calls = counted
        source = ["the", "cat", "eats", "fish"]
        for n in (3, 5, 3, 5):
            fresh = [" ".join(h.tokens) for h in decode_nbest(ckpt, source, DecodeParams(n))]
            assert decoder.sentences(source, n, 8) == fresh
        assert calls == {"load": 1, "decode": 2}
        decoder.sentences(source, 3, 2)
        assert calls == {"load": 1, "decode": 3}

    def test_released_decoder_loads_again_only_on_a_miss(self, counted):
        decoder, _, calls = counted
        first = decoder.sentences(["the", "dog"], 5, 8)
        decoder.release()
        assert decoder.sentences(["the", "dog"], 5, 8) == first
        assert calls == {"load": 1, "decode": 1}
        decoder.sentences(["the", "dog"], 3, 8)
        assert calls == {"load": 2, "decode": 2}

    def test_empty_source_is_decoded_and_yields_no_sentence(self, counted):
        """A prompt with no words still loads the checkpoint, so a corrupt
        one is found; its one empty hypothesis is no sentence."""
        decoder, ckpt, calls = counted
        assert [h.tokens for h in decode_nbest(ckpt, [], DecodeParams(n_best=3))] == [()]
        assert decoder.sentences([], 3, 8) == []
        assert calls == {"load": 1, "decode": 1}

    def test_rounding_near_tie_is_not_sliced(self):
        """After "s1 s2", "a z" trails "b z" by one rounding step; the third
        word's large LM cost rounds both totals to one value, so tokens rank
        "a z w" first, but the 1-best search pruned "a z" and returns "b z w".
        n-best(1) is then no prefix of n-best(2), so the memo, keyed on n,
        answers each n with its own decode."""
        lexicon = {"s1": {"a": 0.5, "b": 0.5}, "s2": {"z": 1.0}, "s3": {"w": 1.0}}
        bigram = {(BOS, "a"): -1.0, (BOS, "b"): -1.0, ("a", "z"): -(0.5 + 2**-51),
                  ("b", "z"): -0.5, ("z", "w"): -1000.0}
        lm = BigramLm(bigram_logprob=bigram, unseen_logprob={}, unigram_logprob={}, alpha=0.1)
        ckpt = Checkpoint(iteration=1, lexicon=lexicon, lm=lm, corpus_loglik=-1.0)
        source = ["s1", "s2", "s3"]
        decoder = decoder_of(ckpt)
        assert decoder.sentences(source, 2, 8) == ["a z w", "b z w"]
        assert decoder.sentences(source, 1, 8) == ["b z w"]


class TestDedup:
    def test_exact_duplicates(self):
        assert dedup(["a", "a", "b"]) == ["a", "b"]

    def test_empty(self):
        assert dedup([]) == []


class TestNbestPredict:
    def test_two_candidates_in_score_order(self, toy_fwd_series, toy_prompts):
        ckpt = decoder_of(toy_fwd_series[-1])
        sets = nbest_predict(ckpt, toy_prompts[:1], params(n=2))
        assert sets[0].prompt_id == "t1"
        assert list(sets[0].candidates) == ["o gato come peixe", "o gato devora peixe"]

    def test_n1_returns_single_best(self, toy_fwd_series, toy_prompts):
        ckpt = decoder_of(toy_fwd_series[-1])
        sets = nbest_predict(ckpt, toy_prompts, params(n=1))
        assert all(len(s.candidates) == 1 for s in sets)

    def test_prefix_nesting_in_n(self, toy_fwd_series, toy_prompts):
        ckpt = decoder_of(toy_fwd_series[-1])
        for k in range(1, 8):
            smaller = nbest_predict(ckpt, toy_prompts, params(n=k))
            larger = nbest_predict(ckpt, toy_prompts, params(n=k + 1))
            for s, l in zip(smaller, larger):
                assert l.candidates[: len(s.candidates)] == s.candidates

    @pytest.mark.parametrize("error", [TypeError, ValidationError])
    @pytest.mark.parametrize("method", ["nbest", "paraphrase", "ensemble"])
    def test_programming_error_propagates(
        self, toy_fwd_series, toy_bwd_series, toy_prompts, monkeypatch, method, error
    ):
        """No method catches an error, not even a ValidationError: no input
        can raise one inside a method (``TestDegradedPrompt``)."""

        def boom(*args, **kwargs):
            raise error("decoder bug")

        monkeypatch.setattr("stapleforge.methods.decode_nbest", boom)
        fwd = decoder_of(toy_fwd_series[-1])
        bwd = decoder_of(toy_bwd_series[-1])
        run = {
            "nbest": lambda: nbest_predict(fwd, toy_prompts, params()),
            "paraphrase": lambda: paraphrase_predict(fwd, bwd, toy_prompts, params()),
            "ensemble": lambda: multi_checkpoint_predict(
                decoders(toy_fwd_series), toy_prompts, params(m=2)
            ),
        }[method]
        with pytest.raises(error, match="decoder bug"):
            run()

    def test_no_normalization_equivalent_duplicates(self, toy_fwd_series, toy_prompts):
        ckpt = decoder_of(toy_fwd_series[-1])
        sets = nbest_predict(ckpt, toy_prompts, params(n=10))
        for s in sets:
            keys = [normalize(c) for c in s.candidates]
            assert len(set(keys)) == len(keys)


class TestParaphrasePredict:
    def test_identity_round_trip_collapses_to_nbest(self, identity_pair):
        # the round trip regenerates only the original prompt, which is dropped
        fwd, bwd = identity_pair
        prompts = [Prompt("p1", "u v"), Prompt("p2", "w")]
        for n, n_prime in [(1, 1), (4, 2), (10, 5)]:
            p = params(n=n, n_prime=n_prime, top_k=4)
            assert paraphrase_predict(fwd, bwd, prompts, p) == nbest_predict(fwd, prompts, p)

    def test_superset_of_nbest(self, toy_fwd_series, toy_bwd_series, toy_prompts):
        fwd = decoder_of(toy_fwd_series[-1])
        bwd = decoder_of(toy_bwd_series[-1])
        p = params(n=5, n_prime=3)
        base = nbest_predict(fwd, toy_prompts, p)
        extended = paraphrase_predict(fwd, bwd, toy_prompts, p)
        for b, e in zip(base, extended):
            assert e.candidates[: len(b.candidates)] == b.candidates
            assert set(b.candidates) <= set(e.candidates)

    def test_candidate_count_bounded_by_pool(self, toy_fwd_series, toy_bwd_series, toy_prompts):
        fwd = decoder_of(toy_fwd_series[-1])
        bwd = decoder_of(toy_bwd_series[-1])
        n, n_prime = 4, 2
        sets = paraphrase_predict(fwd, bwd, toy_prompts, params(n=n, n_prime=n_prime))
        for s in sets:
            # step 1 yields <= n, step 2's pool <= n*n', step 3 <= pool size
            assert len(s.candidates) <= n + n * n_prime

    def test_same_direction_rejected(self, toy_fwd_series, toy_prompts):
        ckpt = decoder_of(toy_fwd_series[-1])
        with pytest.raises(ValidationError, match="direction"):
            paraphrase_predict(ckpt, ckpt, toy_prompts, params())


class TestMultiCheckpointPredict:
    def test_m1_equals_nbest_on_last(self, toy_fwd_series, toy_prompts):
        p = params(n=10, m=1)
        assert multi_checkpoint_predict(decoders(toy_fwd_series), toy_prompts, p) == (
            nbest_predict(decoder_of(toy_fwd_series[-1]), toy_prompts, p)
        )

    def test_union_latest_first(self, toy_fwd_series, toy_prompts):
        ckpt_a = decoder_of(toy_fwd_series[-1])
        ckpt_b = decoder_of(toy_fwd_series[-2])
        p = params(n=10, m=2)
        merged = multi_checkpoint_predict(decoders(toy_fwd_series), toy_prompts, p)
        from_a = nbest_predict(ckpt_a, toy_prompts, p)
        from_b = nbest_predict(ckpt_b, toy_prompts, p)
        for m_set, a_set, b_set in zip(merged, from_a, from_b):
            assert m_set.candidates[: len(a_set.candidates)] == a_set.candidates
            assert set(m_set.candidates) == set(a_set.candidates) | set(b_set.candidates)

    def test_m_exceeding_series_rejected(self, toy_fwd_series, toy_prompts):
        with pytest.raises(ValidationError, match=r"m=9 exceeds the series length 5"):
            multi_checkpoint_predict(decoders(toy_fwd_series), toy_prompts, params(m=9))

    def test_prompt_without_words_gets_an_empty_set(self, toy_fwd_series, toy_prompts):
        sets = multi_checkpoint_predict(
            decoders(toy_fwd_series), [*toy_prompts, Prompt("px", "?!")], params(m=3)
        )
        assert [s.prompt_id for s in sets] == [*(p.id for p in toy_prompts), "px"]
        assert [s for s in sets if not s.candidates] == [sets[-1]]

    def test_recall_monotone_in_m(self, toy_fwd_series, toy_prompts, toy_golds):
        previous = None
        for m in range(1, len(toy_fwd_series) + 1):
            sets = multi_checkpoint_predict(
                decoders(toy_fwd_series), toy_prompts, params(n=10, m=m)
            )
            score = score_corpus(toy_golds, sets)
            if previous is not None:
                for cur, prev in zip(score.per_prompt, previous.per_prompt):
                    assert cur.weighted_recall >= prev.weighted_recall
                assert score.mean_weighted_recall >= previous.mean_weighted_recall
            previous = score

    def test_fixture_world_recall_actually_grows(self, toy_fwd_series, toy_prompts, toy_golds):
        # guards the fixture design: the ensemble must add real gold hits
        small = score_corpus(
            toy_golds,
            multi_checkpoint_predict(decoders(toy_fwd_series), toy_prompts, params(n=10, m=1)),
        )
        large = score_corpus(
            toy_golds,
            multi_checkpoint_predict(decoders(toy_fwd_series), toy_prompts, params(n=10, m=5)),
        )
        assert large.mean_weighted_recall > small.mean_weighted_recall


class TestPredict:
    def test_runs_each_method_on_its_newest_checkpoints(
        self, toy_fwd_series, toy_bwd_series, toy_prompts
    ):
        fwd = decoder_of(toy_fwd_series[-1])
        bwd = decoder_of(toy_bwd_series[-1])
        fwds, bwds = decoders(toy_fwd_series), decoders(toy_bwd_series)
        p = params(n=4, n_prime=2, m=3)
        assert predict("nbest", fwds, [], toy_prompts, p) == nbest_predict(fwd, toy_prompts, p)
        assert predict("paraphrase", fwds, bwds, toy_prompts, p) == paraphrase_predict(
            fwd, bwd, toy_prompts, p
        )
        assert predict("ensemble", fwds, [], toy_prompts, p) == (
            multi_checkpoint_predict(decoders(toy_fwd_series), toy_prompts, p)
        )

    def test_paraphrase_without_backward_model_rejected(self, toy_fwd_series, toy_prompts):
        with pytest.raises(ValidationError, match="backward model"):
            predict("paraphrase", decoders(toy_fwd_series), [], toy_prompts, params())


# arbitrary text, or punctuation, symbols and spaces alone, which has no words
WORDLESS = st.characters(whitelist_categories=("P", "S", "Z"))
PROMPT_TEXT = (st.text(max_size=25) | st.text(WORDLESS, max_size=25)).filter(str.strip)


class TestDegradedPrompt:
    """A prompt degrades only when its canonical form has no words; the
    parsers, ``Prompt`` (its text is not blank) and ``MethodParams`` check
    every other input before any decode, so no method needs to catch an
    error."""

    @pytest.mark.parametrize("method", METHODS)
    @settings(max_examples=100, deadline=None)
    @given(texts=st.lists(PROMPT_TEXT, min_size=1, max_size=3))
    def test_set_is_empty_exactly_when_the_prompt_has_no_words(
        self, toy_fwd_series, toy_bwd_series, method, texts
    ):
        prompts = [Prompt(f"p{i}", text) for i, text in enumerate(texts)]
        sets = predict(
            method, decoders(toy_fwd_series), decoders(toy_bwd_series), prompts,
            params(n=4, n_prime=2, m=3),
        )
        assert [s.prompt_id for s in sets] == [p.id for p in prompts]
        assert [not s.candidates for s in sets] == [not sentence_tokens(t) for t in texts]


class TestDeterminism:
    def test_methods_are_deterministic(self, toy_fwd_series, toy_bwd_series, toy_prompts):
        fwd = decoder_of(toy_fwd_series[-1])
        bwd = decoder_of(toy_bwd_series[-1])
        p = params(n=6, n_prime=2, m=3)
        runs = [
            (
                nbest_predict(fwd, toy_prompts, p),
                paraphrase_predict(fwd, bwd, toy_prompts, p),
                multi_checkpoint_predict(decoders(toy_fwd_series), toy_prompts, p),
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
