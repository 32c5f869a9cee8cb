"""Combinatorics of ladder representations of split odd orthogonal and
symplectic p-adic groups: data validation, colored ladder graphs,
derivatives, Jacquet expansions, duality, cuspidal supports, and the signed
standard-module expansion in the Grothendieck group."""

from .core import (
    CuspidalLabel,
    GroupKind,
    GrothendieckElement,
    HalfInt,
    InvalidSegmentError,
    LadderError,
    NotStandardModuleError,
    Parity,
    RankMismatchError,
    Segment,
    StandardModule,
    TemperedParam,
    TemperedPiece,
    ZERO_REP,
    ZeroRep,
    hi,
    is_zero,
)
from .datum import (
    DatumBlock,
    DatumValidationError,
    LadderDatum,
    LanglandsData,
    canonical_form,
    is_canonical,
    langlands_data_of,
    standard_module_of,
    validate_datum,
)
from .graph import (
    GraphParseError,
    JacquetTerm,
    LadderGraph,
    aubert_dual,
    build_graph,
    derivative,
    graph_to_datum,
    is_supercuspidal,
    jacquet_expansion,
    parse_colored_vertices,
    supp_ladder,
)
from .support import (
    SupportMultiset,
    UnsupportedParameterError,
    project_ps,
    supp_discrete_series,
)
from .formula import (
    GLCombination,
    GLLadder,
    SigmaElement,
    TableRow,
    assemble_i_sigma,
    determinantal_formula,
    enumerate_sigma,
    gl_determinantal_formula,
    sigma_table,
)

__version__ = "0.1.0"
