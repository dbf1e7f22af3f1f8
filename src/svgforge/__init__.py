"""svgforge: SVG icon normalization, classification and dataset tooling.

The library unifies arbitrary SVG icons into absolute M/L/C paths on a
1024-unit canvas, classifies them into four difficulty levels, scores
generated SVG text with integrity and path-count-matching rewards,
augments colored icons deterministically, and assembles training-ready
JSONL datasets with curriculum manifests.
"""

from .augment import AugmentSpec, replace_colors, swap_paths
from .classifier import (
    Classification,
    ColorCategory,
    classify,
    count_commands,
    detect_color_category,
)
from .errors import SvgForgeError
from .model import (
    AffineTransform,
    CubicTo,
    DifficultyLevel,
    Document,
    Hex,
    LineTo,
    MoveTo,
    NO_FILL,
    NoFill,
    PathElement,
    Point,
    RawCommand,
    Reference,
    ShapeElement,
    document_equal,
)
from .normalizer import (
    NormalizeReport,
    arc_to_cubics,
    apply_transform,
    normalize_canvas,
    normalize_document,
    normalize_slices,
    shape_to_path,
    simplify_commands,
    to_absolute,
)
from .parser import ParseDiagnostics, parse_document, serialize_document, serialize_paths
from .pathdata import parse_path_data
from .pipeline import DatasetRecord, build_curriculum, record_from_document
from .rewards import (
    MatchSemantics,
    RewardBreakdown,
    RewardParams,
    integrity_indicator,
    match_reward,
    path_count,
    total_reward,
)
from .verifier import (
    DeviationReport,
    Polyline,
    VerificationResult,
    flatten_cubic,
    max_deviation,
    sample_outline,
    verify_normalization,
)

__version__ = "0.1.0"

__all__ = [
    "AffineTransform", "AugmentSpec", "Classification", "ColorCategory",
    "CubicTo", "DatasetRecord", "DeviationReport", "DifficultyLevel",
    "Document", "Hex", "LineTo", "MatchSemantics", "MoveTo", "NO_FILL",
    "NoFill", "NormalizeReport", "ParseDiagnostics", "PathElement", "Point",
    "Polyline", "RawCommand", "Reference", "RewardBreakdown", "RewardParams",
    "ShapeElement", "SvgForgeError", "VerificationResult", "apply_transform",
    "arc_to_cubics", "build_curriculum", "classify", "count_commands",
    "detect_color_category", "document_equal", "flatten_cubic",
    "integrity_indicator", "match_reward", "max_deviation", "normalize_canvas",
    "normalize_document", "normalize_slices", "parse_document", "parse_path_data",
    "path_count", "record_from_document", "replace_colors", "sample_outline",
    "serialize_document", "serialize_paths", "shape_to_path", "simplify_commands",
    "swap_paths", "to_absolute", "total_reward", "verify_normalization",
]
