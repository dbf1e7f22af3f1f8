"""Reward functions for scoring generated SVG text against references.

Two components: an integrity reward (alpha times an indicator that the
text parses and normalizes cleanly) and a path-count matching reward that
saturates at beta once the generated path count reaches the reference
count and decays exponentially below it.

The published formula ``max(beta, beta*exp(-gamma*(N - N_gt)))`` rewards
*undershooting* the reference count, contradicting its own surrounding
description of decaying on a deficit. The default ``PROSE_CONSISTENT``
semantics implements the described behavior,
``beta*exp(-gamma*max(0, N_gt - N))``; ``LITERAL_FORMULA`` evaluates the
printed expression verbatim for comparison experiments.

Integrity follows the paper's reward: a text that parses and normalizes
scores 1 even when the parser warned on the way (an ignored ``transform``,
a dropped foreign element or a bad shape attribute). The warnings say how
the text was read, not whether it is well formed; ``TestSilentDecisions``
in ``tests/test_normalizer.py`` pins that they leave integrity at 1.

A text's paths are counted on the slices of
:func:`~svgforge.normalizer.normalize_text`, the route by which every
subcommand reads SVG text: canonical text is counted as text, and other
text after its parse and normalization.

The functions keep no state of their own. A batch that scores many
rollouts against few references can pass :func:`total_reward` a
``counts`` dict that it owns, from each text to its path count or its
integrity failure, so each distinct text is counted once;
the dict holds one entry per distinct text, so it is bounded by the
caller's batch and freed with it. Without one, batches may be scored from
any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidReference, Unparseable, ValidationError
from .normalizer import normalize_text

# Not called here, but bench/spans.py traces them by these names in this module.
from .normalizer import normalize_document  # noqa: F401
from .parser import parse_document  # noqa: F401


class MatchSemantics(Enum):
    PROSE_CONSISTENT = "prose"
    LITERAL_FORMULA = "literal"


@dataclass(frozen=True, slots=True)
class RewardParams:
    """Reward coefficients; all three default to 1 and must be finite."""

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    match_semantics: MatchSemantics = MatchSemantics.PROSE_CONSISTENT

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValidationError(f"{name} must be finite and strictly positive")


@dataclass(frozen=True, slots=True)
class RewardBreakdown:
    integrity: float
    match: float
    total: float
    n_generated: int
    n_reference: int
    integrity_flag: int


def integrity_indicator(svg_text: str) -> int:
    """1 iff the text parses as SVG and normalizes to a non-empty document.

    Well-formed XML with an svg root, every path's ``d`` valid under the
    full grammar, and at least one drawable surviving normalization, i.e.
    :func:`path_count` succeeds. Total on arbitrary input: anything else
    maps to 0.
    """
    try:
        path_count(svg_text)
    except Unparseable:
        return 0
    return 1


def path_count(svg_text: str) -> int:
    """Number of path elements in the normalized document.

    Every drawable becomes exactly one path during normalization, so this
    matches the classifier's path count. The paths are the slices of
    :func:`~svgforge.normalizer.normalize_text`, which reads canonical text
    as text and raises what ``normalize_document`` raises on other text,
    without typing a command. Raises :class:`Unparseable` when the text
    fails the integrity check.
    """
    try:
        return len(normalize_text(svg_text)[0])
    except Exception as exc:
        # arbitrary model output can break in arbitrary ways; that fails integrity
        raise Unparseable(str(exc)) from None


def _match_from_counts(n_gen: int, n_ref: int, params: RewardParams) -> float:
    if params.match_semantics is MatchSemantics.LITERAL_FORMULA:
        return max(params.beta, params.beta * math.exp(-params.gamma * (n_gen - n_ref)))
    return params.beta * math.exp(-params.gamma * max(0, n_ref - n_gen))


def match_reward(
    generated: str, reference: str, params: RewardParams = RewardParams()
) -> float:
    """Path-count matching reward for one generated/reference pair.

    A generated text that fails integrity contributes a path count of 0
    rather than aborting, so every rollout receives a reward. Raises
    :class:`InvalidReference` when the reference itself fails integrity.
    """
    return total_reward(generated, reference, params).match


def _counted(text: str, counts: dict[str, int | str] | None) -> int:
    """:func:`path_count` of ``text``, looked up in ``counts`` first and
    stored there after. A failure is stored as its message and raised as a
    new :class:`Unparseable` each time. Only ``str`` keys are stored: other
    values fail integrity anyway, and ``1`` and ``True`` would share one."""
    if counts is None or type(text) is not str:
        return path_count(text)
    found = counts.get(text)
    if found is None:
        try:
            found = path_count(text)
        except Unparseable as exc:
            found = str(exc)
        counts[text] = found
    if type(found) is str:
        raise Unparseable(found)
    return found


def total_reward(
    generated: str,
    reference: str,
    params: RewardParams = RewardParams(),
    *,
    counts: dict[str, int | str] | None = None,
) -> RewardBreakdown:
    """Integrity plus match reward with the full breakdown.

    ``counts``, when given, is the caller's memo of path counts by text
    (see the module docstring); the breakdown is the same with or without it.
    """
    try:
        n_ref = _counted(reference, counts)
    except Unparseable as exc:
        raise InvalidReference(f"reference failed integrity: {exc}") from None
    try:
        n_gen = _counted(generated, counts)
        flag = 1
    except Unparseable:
        n_gen = 0
        flag = 0
    integrity = params.alpha * flag
    match = _match_from_counts(n_gen, n_ref, params)
    return RewardBreakdown(
        integrity=integrity,
        match=match,
        total=integrity + match,
        n_generated=n_gen,
        n_reference=n_ref,
        integrity_flag=flag,
    )
