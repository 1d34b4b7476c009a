"""Segment-level scoring of web pages against a query and a user profile.

Pages are partitioned into segments by block structure and text
density; each segment is scored along six structural dimensions plus an
entity-annotation dimension, and the page score is the sum over its
segments.
"""

from .annotations import (
    AnnotationSet,
    CategoryWeights,
    Entity,
    Gazetteer,
    GazetteerProvider,
    RemoteProvider,
    ReplayProvider,
    annotate,
    annotate_texts,
    annotation_score,
    text_key,
)
from .dom import DomNode, body_of, page_title_tokens, parse_html, visible_text
from .errors import (
    EmptyPage,
    EmptySession,
    MalformedInput,
    MalformedProfile,
    MissingFile,
    ProviderProtocol,
    ProviderUnavailable,
    SegscoreError,
    StorageFailure,
)
from .pipeline import (
    PageReport,
    ScoreConfig,
    SegmentScoreRecord,
    SessionStats,
    compute_session_stats,
    reference_table_checks,
    score_page,
    session_stats_csv,
)
from .reports import (
    resolve_path,
    score_report_html,
    segment_boundary_html,
    serialize_html,
)
from .scoring import (
    DEFAULT_VMWT,
    DimensionCoefficients,
    DimensionScores,
    Vmwt,
    structural_score,
)
from .segmenter import (
    Segment,
    SegmentationConfig,
    segment_page,
    segments_to_json,
    token_fingerprint,
)
from .stores import (
    Profile,
    SnapshotRecord,
    SnapshotSegment,
    SnapshotStore,
    load_profile,
    match_prior_segment,
)
from .terms import Query, fuse_terms, match_score, tokenize

__version__ = "0.1.0"
