"""Statement-proof matching: corpora, symbol replacement, bilinear
similarity models, local/global decoding, and evaluation."""

__version__ = "0.1.0"

from .errors import InvalidValue, ProofmatchError  # noqa: F401
from .corpus import (  # noqa: F401
    Corpus,
    Font,
    PairRecord,
    SplitMode,
    SplitSpec,
    Token,
    TokenKind,
    filter_pair,
    read_corpus,
    split_corpus,
    write_corpus,
)
from .mathml import linearize_mathml  # noqa: F401
from .symbols import (  # noqa: F401
    CONSERVATION,
    FULL,
    PARTIAL,
    TRANSPOSITION,
    ReplacementLevel,
    replace_corpus,
)
from .encoders import (  # noqa: F401
    EncoderConfig,
    EncoderKind,
    ModelState,
    Pooling,
    Vocabulary,
    build_vocab,
    init_model,
    load_model,
    save_model,
)
from .assignment import prune_topk, solve_dense, solve_sparse  # noqa: F401
from .decoding import build_score_matrix, decode_global, decode_local  # noqa: F401
from .training import Objective, Optimizer, TrainConfig, train  # noqa: F401
from .evalharness import mrr, run_grid  # noqa: F401
