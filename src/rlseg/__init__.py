"""Word and character segmentation computed directly on run-length encoded
binary text-line images, with a pixel-domain oracle and benchmark baseline."""

from .chars import (
    CharSegmentation,
    DEFAULT_PARAMS,
    LineCharSegmentation,
    RepairOp,
    RoiParams,
    band_or,
    candidate_separators,
    repair,
    roi,
    segment_chars,
    segment_line_chars,
    split_bands,
)
from .errors import (
    EmptyGroundTruthError,
    EmptyLineError,
    EmptyRangeError,
    EmptyWordError,
    MalformedRleError,
    NoGapsError,
    OutOfBoundsError,
    ParseError,
    RlsegError,
    WidthMismatchError,
)
from .evaluate import (
    AccuracyReport,
    GroundTruthLine,
    MatchResult,
    accuracy_rate,
    evaluate_records,
    load_ground_truth,
    match,
)
from .pbm import read_pbm, write_pbm
from .pixel_baseline import (
    pdp_occupancy,
    pdp_segment_chars,
    pdp_segment_line_chars,
    pdp_segment_words,
)
from .projection import (
    Component,
    Gap,
    Occupancy,
    WorkCounter,
    column_frequency,
    components,
    gaps,
    occupancy,
)
from .rle import (
    Bitmap,
    RleImage,
    RleRow,
    crop_columns,
    cumulative_runs,
    decode,
    encode,
    locate_run,
    read_rle,
    write_rle,
)
from .synth import SynthConfig, SynthLine, generate_corpus, write_corpus
from .words import (
    AUTO,
    GapKind,
    SeparatorPoint,
    ThresholdMode,
    WordSegmentation,
    classify_gaps,
    gap_midpoint,
    segment_words,
    select_threshold,
)

__version__ = "0.1.0"
