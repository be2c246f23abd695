from __future__ import annotations

import io
import logging

import pytest
from hypothesis import given, strategies as st

from oracles import normalize_oracle
from stapleforge.corpus import (
    RESERVED_TOKENS,
    GoldSet,
    PredictionSet,
    Prompt,
    WeightedTranslation,
    is_model_word,
    normalize,
    parse_gold,
    parse_predictions,
    parse_prompts,
    split_lines,
    write_predictions,
)
from stapleforge.errors import ParseError, ValidationError
from stapleforge.textproc import sentence_tokens

TABLE_BLOCK = """q1|is my explanation clear?
minha explicação está clara?|0.26739
minha explicação é clara?|0.16168
a minha explicação é clara?|0.11109
está clara minha explicação?|0.08778
minha explanação está clara?|0.05717
"""

class TestNormalize:
    def test_examples(self):
        assert normalize("Minha explicação está CLARA?") == "minha explicação está clara"
        assert normalize("a  b\tc ") == "a b c"
        assert normalize("?!.") == ""

    @given(st.text())
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @given(st.text() | st.text(st.characters(whitelist_categories=("P", "Z", "Mn", "Lu"))))
    def test_matches_the_per_character_form(self, text):
        assert normalize(text) == normalize_oracle(text)

    def test_punctuation_beside_combining_marks_matches_the_per_character_form(self):
        texts = ("«Olá», disse—ele…!", "a\u0301.\u0301 e\u0301", "¿Qué? ¡Sí! 「引用」")
        for text in texts:
            assert normalize(text) == normalize_oracle(text)


class TestParseGold:
    def test_table_block(self):
        golds = parse_gold(TABLE_BLOCK)
        assert len(golds) == 1
        gold = golds[0]
        assert gold.prompt.id == "q1"
        assert len(gold.translations) == 5
        assert gold.translations[0].weight == 0.26739
        # translations are held in canonical form
        assert gold.translations[0].text == "minha explicação está clara"

    def test_single_translation_weight_one(self):
        golds = parse_gold("p|hello\nolá|1.0\n")
        assert len(golds[0].translations) == 1

    def test_weight_out_of_range(self):
        with pytest.raises(ValidationError, match="weight"):
            parse_gold("p|x\nfoo|1.5\n")
        with pytest.raises(ValidationError, match="weight"):
            parse_gold("p|x\nfoo|0\n")

    def test_malformed_header_carries_line_number(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_gold("no pipe here\nfoo|0.5\n")

    def test_bad_weight_literal(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_gold("p|x\nfoo|abc\n")

    @pytest.mark.parametrize("literal", ["1e-1", "0.1234567", "0.5_0", "+0.5", ".5", "0,5",
                                         "1.", " 0.5", "0.5 ", "nan", "inf", "٠.٥"])
    def test_weight_outside_documented_format_rejected(self, literal):
        with pytest.raises(ParseError, match="line 3.*bad weight literal"):
            parse_gold(f"p|x\nbar|0.1\nfoo|{literal}\n")

    @pytest.mark.parametrize("literal, value", [("0.26739", 0.26739), ("1.0", 1.0), ("1", 1.0),
                                                ("0.000001", 1e-06), ("1.000000", 1.0)])
    def test_weight_in_documented_format_accepted(self, literal, value):
        assert parse_gold(f"p|x\nfoo|{literal}\n")[0].translations[0].weight == value

    def test_duplicate_translation_rejected(self):
        stream = "p|x\nOlá!|0.5\nolá|0.3\n"
        with pytest.raises(ValidationError, match="duplicate"):
            parse_gold(stream)

    def test_empty_block_rejected(self):
        with pytest.raises(ValidationError, match="empty block"):
            parse_gold("p|x\n\nq|y\nfoo|0.5\n")

    def test_weight_sum_above_one_rejected(self):
        with pytest.raises(ValidationError, match="sum"):
            parse_gold("p|x\na|0.9\nb|0.2\n")

    def test_non_canonical_translation_rejected(self):
        assert WeightedTranslation("olá tudo bem", 0.5).text == "olá tudo bem"
        for text in ["Olá", "olá, tudo bem", "olá  tudo", " olá"]:
            with pytest.raises(ValidationError, match="canonical form"):
                WeightedTranslation(text, 0.5)

    def test_translation_line_without_separator_rejected(self):
        with pytest.raises(ParseError, match=r"line 3: expected 'translation\|weight': 'olá'"):
            parse_gold("p|x\na|0.5\nolá\n")

    def test_translation_empty_once_canonical_rejected(self):
        with pytest.raises(ValidationError,
                           match=r"line 2: translation is empty after normalization: '\?!'"):
            parse_gold("p|x\n?!|0.5\n")

    def test_weights_sorted_non_increasing(self):
        golds = parse_gold("p|x\na|0.1\nb|0.5\nc|0.2\n")
        weights = [t.weight for t in golds[0].translations]
        assert weights == sorted(weights, reverse=True)


class TestParsePredictions:
    def test_deduplication_first_wins(self):
        sets = parse_predictions("q1|x\na\nb\nA!\n")
        assert sets[0].candidates == ("a", "b")

    def test_candidates_are_canonical(self):
        sets = parse_predictions("q1|x\nOlá, tudo  bem?\n?!\n")
        # an all-punctuation line is the empty sentence, which matches no gold
        assert sets[0].candidates == ("olá tudo bem", "")

    def test_empty_stream(self):
        assert parse_predictions("") == []

    def test_block_order_preserved(self):
        sets = parse_predictions("q1|x\na\n\nq2|y\nb\n")
        assert [s.prompt_id for s in sets] == ["q1", "q2"]

    def test_duplicate_prompt_id_rejected(self):
        with pytest.raises(ValidationError, match="duplicate prompt id"):
            parse_predictions("q1|x\na\n\nq1|y\nb\n")

    def test_no_silent_drops(self, caplog):
        stream = "q1|x\na\n \na\nb\n"  # 4 candidate lines after the header
        with caplog.at_level(logging.WARNING, logger="stapleforge.corpus"):
            sets = parse_predictions(stream)
        kept = len(sets[0].candidates)
        warned = len(caplog.records)
        assert kept == 2
        assert warned == 2  # one whitespace-only line, one duplicate
        assert kept + warned == 4  # every candidate line is accounted for


class TestWritePredictions:
    def test_empty(self):
        buf = io.StringIO()
        write_predictions([], buf)
        assert buf.getvalue() == ""

    def test_single_block_shape(self):
        buf = io.StringIO()
        write_predictions([PredictionSet("q1", ("a",))], buf)
        assert buf.getvalue() == "q1|\na\n"

    def test_three_block_round_trip(self):
        sets = [
            PredictionSet("q1", ("a", "b c")),
            PredictionSet("q2", ()),
            PredictionSet("q3", ("x y z",)),
        ]
        buf = io.StringIO()
        write_predictions(sets, buf)
        assert parse_predictions(buf.getvalue()) == sets

    def test_empty_candidate_rejected(self):
        with pytest.raises(ValidationError):
            write_predictions([PredictionSet("q1", (" ",))], io.StringIO())


words = st.text(alphabet="abcxyz", min_size=1, max_size=4)
sentences = st.builds(" ".join, st.lists(words, min_size=1, max_size=4))


@st.composite
def prediction_corpora(draw):
    n_sets = draw(st.integers(min_value=0, max_value=4))
    sets = []
    for i in range(n_sets):
        raw = draw(st.lists(sentences, max_size=6))
        seen, cands = set(), []
        for cand in raw:
            key = normalize(cand)
            if key not in seen:
                seen.add(key)
                cands.append(cand)
        sets.append(PredictionSet(prompt_id=f"p{i}", candidates=tuple(cands)))
    return sets


@given(prediction_corpora())
def test_round_trip_identity(sets):
    buf = io.StringIO()
    write_predictions(sets, buf)
    assert parse_predictions(buf.getvalue()) == sets


prompt_texts = st.text(alphabet="abcxyzé ?!|", min_size=1, max_size=12).map(str.strip).filter(
    lambda t: normalize(t) != ""
)
canonical_texts = st.builds(
    " ".join, st.lists(st.text(alphabet="abcxyzé", min_size=1, max_size=4), min_size=1, max_size=3)
)


@st.composite
def gold_corpora(draw):
    """Gold sets and their rendering, weights written with 0-6 fractional digits."""
    golds, blocks = [], []
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        surface = draw(prompt_texts)
        prompt = Prompt(id=f"q{i}", text=normalize(surface))
        texts = draw(st.lists(canonical_texts, min_size=1, max_size=6, unique=True))
        lines = [f"{prompt.id}|{surface}"]
        translations = []
        for text in texts:
            # whole millionths, at most 1e6 // len(texts) each, so the set sums to <= 1
            micros = draw(st.integers(min_value=1, max_value=10**6 // len(texts)))
            literal = f"{micros / 10**6:.6f}".rstrip("0").rstrip(".")
            lines.append(f"{text}|{literal}")
            translations.append(WeightedTranslation(text=text, weight=float(literal)))
        translations.sort(key=lambda t: -t.weight)
        golds.append(GoldSet(prompt=prompt, translations=tuple(translations)))
        blocks.append("\n".join(lines) + "\n")
    return golds, "\n".join(blocks)


@given(gold_corpora())
def test_parse_gold_inverts_rendering(corpus):
    golds, text = corpus
    assert parse_gold(text) == golds


def test_parse_prompts():
    prompts = parse_prompts("p1|First prompt.\n\np2|Second prompt.\n")
    assert [(p.id, p.text) for p in prompts] == [
        ("p1", "first prompt"),
        ("p2", "second prompt"),
    ]
    with pytest.raises(ValidationError, match="duplicate"):
        parse_prompts("p1|a\np1|b\n")
    with pytest.raises(ParseError):
        parse_prompts("no separator\n")


def test_prompts_are_held_in_canonical_form():
    """A prompt is canonicalized where it is read, an all-punctuation one
    to the empty text, which decodes to no candidate."""
    prompts = parse_prompts("p1| O  gato, come!\np2|?!\n")
    assert prompts == [Prompt("p1", "o gato come"), Prompt("p2", "")]
    assert parse_gold("p1|O gato!\nthe cat|0.5\n")[0].prompt == Prompt("p1", "o gato")
    for text in ["O gato", "o gato!", "o  gato", " o gato"]:
        with pytest.raises(ValidationError, match="prompt p1: text .* is not in canonical form"):
            Prompt("p1", text)


@pytest.mark.parametrize("parse, stream",
                         [(parse_prompts, "q1|\n"), (parse_gold, "q1| \na|0.5\n")],
                         ids=["prompts", "gold"])
def test_header_with_empty_text_rejected(parse, stream):
    with pytest.raises(ValidationError, match="line 1: prompt q1: text is empty"):
        parse(stream)


@pytest.mark.parametrize(
    "parse, stream, repeat_line",
    [(parse_gold, "p1|x\na|0.5\n\np1|y\nb|0.5\n", 4),
     (parse_predictions, "p1|\na\n\np1|\nb\n", 4),
     (parse_prompts, "p1|x\np1|y\n", 2)],
    ids=["gold", "predictions", "prompts"],
)
def test_headers_read_alike(parse, stream, repeat_line):
    """One reader takes every ``id|text`` header: split on the first ``|``,
    stripped, id non-empty and new in its file; errors name the line."""
    with pytest.raises(ValidationError, match=f"line {repeat_line}: duplicate prompt id 'p1'"):
        parse(stream)
    with pytest.raises(ValidationError, match="line 1: prompt id must be non-empty"):
        parse(stream.replace("p1", " ", 1))
    with pytest.raises(ParseError, match="line 1: malformed header"):
        parse(stream.replace("|", " ", 1))


@given(st.text() | st.sampled_from(RESERVED_TOKENS)
       | st.text(alphabet="<>/sunkother ?!", max_size=8))
def test_a_model_word_is_one_canonical_token_not_reserved(word):
    assert is_model_word(word) == (sentence_tokens(word) == [word]
                                   and word not in RESERVED_TOKENS)


@pytest.mark.parametrize(
    "parse, stream, reason",
    [(parse_prompts, "x0|o gato\nx1|o </s> gato <unk>\n",
      "line 2: prompt x1: holds the reserved token '<s>'"),
     (parse_gold, "q0|x\na|0.5\n\nq1|o gato <unk>\nb|0.5\n",
      "line 4: prompt q1: holds the reserved token '<unk>'")],
    ids=["prompts", "gold"],
)
def test_prompt_holding_a_reserved_token_is_refused(parse, stream, reason):
    """A model would read the token as its own (a copied ``<s>`` was decoded
    as the sentence start), so no prompt may hold one once canonicalized:
    ``</s>`` is ``<s>`` in canonical form."""
    with pytest.raises(ValidationError, match=reason):
        parse(stream)


def test_translations_and_candidates_may_hold_reserved_tokens():
    """Only prompts are decoded; a gold translation or a candidate is a
    string compared with others, whatever its words."""
    golds = parse_gold("q1|x\n<unk> </s>|0.5\n")
    assert golds[0].translations[0].text == "<unk> <s>"
    assert parse_predictions("q1|\n<s> <other>\n")[0].candidates == ("<s> <other>",)


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c"])
def test_text_lines_end_at_lf_crlf_or_cr_alone(separator):
    """str.splitlines() also ends a line at a Unicode line or paragraph
    separator, NEL, VT and FF: parse_prompts read two prompts from this one
    line, and parse_gold took q2's header for a translation line."""
    assert [p.id for p in parse_prompts(f"p1|o gato{separator}p2|come peixe\n")] == ["p1"]
    golds = parse_gold(f"q1|the cat{separator}q2|x\no gato|0.5\n")
    assert [(g.prompt.id, len(g.translations)) for g in golds] == [("q1", 1)]


@pytest.mark.parametrize(
    "text, lines",
    [("", []), ("a", ["a"]), ("a\n", ["a"]), ("a\n\n", ["a", ""]),
     ("\ufeffa\r\nb\rc\n", ["a", "b", "c"]),
     ("a\u2028b\x85c\x0bd\x0ce\n", ["a\u2028b\x85c\x0bd\x0ce"])],
)
def test_split_lines(text, lines):
    """Only the empty piece after a final line end is dropped, as
    str.splitlines() drops it; a blank line before it stays a line."""
    assert split_lines(text) == lines


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
@pytest.mark.parametrize("parse, name", [(parse_gold, "toy_gold.txt"),
                                         (parse_prompts, "toy_prompts.txt")],
                         ids=["gold", "prompts"])
def test_crlf_and_cr_text_parses_like_lf(fixtures_path, parse, name, ending, bom):
    text = (fixtures_path / name).read_text(encoding="utf-8")
    assert "\r" not in text
    assert parse(bom + text.replace("\n", ending)) == parse(text)
