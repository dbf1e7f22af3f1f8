import math
import random

import pytest

from svgforge.errors import InvalidReference, Unparseable, ValidationError
from svgforge.rewards import (
    MatchSemantics,
    RewardParams,
    integrity_indicator,
    match_reward,
    path_count,
    total_reward,
)

VALID = '<svg viewBox="0 0 1024 1024"><path d="M0 0L10 10" fill="#ff0000"/></svg>'

PROSE = RewardParams()
LITERAL = RewardParams(match_semantics=MatchSemantics.LITERAL_FORMULA)


def svg_with_paths(n: int) -> str:
    body = "".join(
        f'<path d="M{i * 20} 0L{i * 20 + 10} 0L{i * 20 + 10} 10L{i * 20} 10Z" fill="#000000"/>'
        for i in range(n)
    )
    return f'<svg viewBox="0 0 1024 1024">{body}</svg>'


class TestIntegrity:
    def test_valid_document(self):
        assert integrity_indicator(VALID) == 1

    def test_truncated_closing_tag(self):
        assert integrity_indicator(VALID.replace("</svg>", "")) == 0

    def test_path_grammar_failure(self):
        assert integrity_indicator(
            '<svg viewBox="0 0 1024 1024"><path d="M0 0 L" fill="#000"/></svg>'
        ) == 0

    def test_arbitrary_garbage(self):
        for text in ("", "hello", "<svg>", "<a/>", "\x00\x01", "<svg viewBox='0 0 1 1'/>"):
            assert integrity_indicator(text) == 0

    def test_no_drawable_is_zero(self):
        assert integrity_indicator(
            '<svg viewBox="0 0 10 10"><path d="M1 1" fill="#000"/></svg>'
        ) == 0


class TestPathCount:
    def test_minimal(self):
        assert path_count(VALID) == 1

    def test_three_paths(self):
        assert path_count(svg_with_paths(3)) == 3

    def test_unparseable_raises(self):
        with pytest.raises(Unparseable):
            path_count("<nope")

    def test_matches_classifier(self, corpus):
        from svgforge.classifier import classify
        from svgforge.normalizer import normalize_document
        from svgforge.parser import parse_document, serialize_document

        for name, text in corpus.items():
            doc, _ = parse_document(text)
            norm, _ = normalize_document(doc)
            assert path_count(serialize_document(norm)) == classify(norm).path_count, name

    def test_counts_without_building_a_command(self, corpus, monkeypatch):
        from svgforge.model import CubicTo, LineTo, MoveTo
        from svgforge.normalizer import normalize_document
        from svgforge.parser import parse_document

        texts = [*corpus.values(), VALID.replace("M0 0", "m0 0"), "<nope",
                 '<svg viewBox="0 0 10 10"><path d="M1 1" fill="#000"/></svg>']

        def counted(text):
            try:
                return path_count(text)
            except Unparseable as exc:
                return str(exc)

        def typed(text):
            try:
                return len(normalize_document(parse_document(text)[0])[0].paths)
            except Exception as exc:
                return str(exc)

        expected = {text: typed(text) for text in texts}

        def refuse(*_):
            raise AssertionError("built a command object")

        for kind in (MoveTo, LineTo, CubicTo):
            monkeypatch.setattr(kind, "__post_init__", refuse)
        assert {text: counted(text) for text in texts} == expected


class TestMatchReward:
    def test_delta_zero_is_beta_exactly(self):
        gen, ref = svg_with_paths(5), svg_with_paths(5)
        assert match_reward(gen, ref, PROSE) == 1.0
        assert match_reward(gen, ref, LITERAL) == 1.0

    def test_deficit_decays(self):
        value = match_reward(svg_with_paths(4), svg_with_paths(5), PROSE)
        assert math.isclose(value, math.exp(-1), rel_tol=0, abs_tol=1e-12)

    def test_surplus_saturates_at_beta(self):
        gen, ref = svg_with_paths(7), svg_with_paths(5)
        assert match_reward(gen, ref, PROSE) == 1.0
        assert match_reward(gen, ref, LITERAL) == 1.0

    def test_literal_formula_rewards_deficit(self):
        # the printed max() picks e^{+gamma} when generating fewer paths
        value = match_reward(svg_with_paths(4), svg_with_paths(5), LITERAL)
        assert math.isclose(value, math.e, rel_tol=0, abs_tol=1e-12)

    def test_failed_generated_counts_zero_paths(self):
        value = match_reward("<broken", svg_with_paths(3), PROSE)
        assert math.isclose(value, math.exp(-3), rel_tol=0, abs_tol=1e-12)

    def test_invalid_reference(self):
        with pytest.raises(InvalidReference):
            match_reward(VALID, "<broken", PROSE)


class TestTotalReward:
    def test_identical_pair(self):
        r = total_reward(VALID, VALID)
        assert r.total == 2.0 and r.integrity == 1.0 and r.match == 1.0
        assert r.integrity_flag == 1 and r.n_generated == r.n_reference == 1

    def test_truncated_generated(self):
        r = total_reward("<svg", svg_with_paths(3))
        assert r.integrity == 0.0 and r.integrity_flag == 0 and r.n_generated == 0
        assert math.isclose(r.total, math.exp(-3), rel_tol=0, abs_tol=1e-12)

    def test_surplus_saturation(self):
        r = total_reward(svg_with_paths(12), svg_with_paths(2))
        assert r.total == 2.0

    def test_breakdown_consistency(self):
        r = total_reward(svg_with_paths(2), svg_with_paths(4), RewardParams(alpha=2, beta=3, gamma=0.5))
        assert r.total == r.integrity + r.match
        assert r.integrity == 2.0 * r.integrity_flag


class TestParams:
    def test_positive_required(self):
        for bad in ({"alpha": 0}, {"beta": -1}, {"gamma": 0}):
            with pytest.raises(ValidationError):
                RewardParams(**bad)

    def test_finite_required(self):
        for bad in ({"alpha": math.inf}, {"beta": math.inf}, {"gamma": math.nan}):
            with pytest.raises(ValidationError):
                RewardParams(**bad)


class TestProperties:
    def _oracle(self, n, n_gt, alpha, beta, gamma, flag):
        # independently coded one-line reference for the prose semantics
        return alpha * flag + (beta if n >= n_gt else beta * math.exp(-gamma * (n_gt - n)))

    def test_against_oracle_random_counts(self):
        rng = random.Random(42)
        cache = {}

        def svg(n):
            return cache.setdefault(n, svg_with_paths(n))

        for _ in range(200):
            n, n_gt = rng.randint(1, 30), rng.randint(1, 30)
            r = total_reward(svg(n), svg(n_gt))
            assert math.isclose(
                r.total, self._oracle(n, n_gt, 1, 1, 1, 1), rel_tol=0, abs_tol=1e-12
            )

    def test_bounded_prose(self):
        rng = random.Random(7)
        for _ in range(100):
            params = RewardParams(
                alpha=rng.uniform(0.1, 4), beta=rng.uniform(0.1, 4), gamma=rng.uniform(0.1, 2)
            )
            n, n_gt = rng.randint(1, 20), rng.randint(1, 20)
            r = total_reward(svg_with_paths(n), svg_with_paths(n_gt), params)
            assert 0 < r.match <= params.beta
            assert 0 <= r.total <= params.alpha + params.beta

    def test_saturation_monotone_in_n(self):
        ref = svg_with_paths(6)
        values = [match_reward(svg_with_paths(n), ref) for n in range(1, 12)]
        for a, b in zip(values, values[1:]):
            assert b >= a
        assert all(v == 1.0 for v in values[5:])

    def test_scale_linearity(self):
        gen, ref = svg_with_paths(3), svg_with_paths(5)
        base = total_reward(gen, ref, RewardParams(alpha=1, beta=1, gamma=1))
        double_a = total_reward(gen, ref, RewardParams(alpha=2, beta=1, gamma=1))
        double_b = total_reward(gen, ref, RewardParams(alpha=1, beta=2, gamma=1))
        assert double_a.integrity == 2 * base.integrity
        assert double_b.match == 2 * base.match
        assert double_a.total == 2 * base.integrity + base.match

    def test_determinism(self):
        gen, ref = svg_with_paths(4), svg_with_paths(9)
        first = total_reward(gen, ref)
        for _ in range(10):
            again = total_reward(gen, ref)
            assert again == first
