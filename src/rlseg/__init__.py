"""Word and character segmentation computed directly on run-length encoded
binary text-line images, with a pixel-domain oracle and benchmark baseline."""

from .chars import (
    CharSegmentation,
    DEFAULT_PARAMS,
    LineCharSegmentation,
    RepairOp,
    RoiParams,
    segment_chars,
    segment_line_chars,
)
from .errors import (
    EmptyGroundTruthError,
    EmptyLineError,
    EmptyRangeError,
    EmptyWordError,
    MalformedRleError,
    OutOfBoundsError,
    ParseError,
    RlsegError,
    SettingError,
)
from .evaluate import GroundTruthLine, evaluate_records, load_ground_truth
from .pbm import read_pbm, write_pbm
from .pixel_baseline import pdp_segment_chars, pdp_segment_line_chars, pdp_segment_words
from .projection import Component, WorkCounter
from .rle import Bitmap, RleImage, decode, encode, read_rle, write_rle
from .synth import SynthConfig, SynthLine, generate_corpus, write_corpus
from .words import AUTO, Cuts, SeparatorPoint, ThresholdMode, WordSegmentation, segment_words

__version__ = "0.1.0"
