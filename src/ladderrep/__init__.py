"""Combinatorics of ladder representations of split odd orthogonal and
symplectic p-adic groups: data validation, colored ladder graphs,
derivatives, Jacquet expansions, duality, cuspidal supports, and the signed
standard-module expansion in the Grothendieck group.

The public names are resolved lazily: each is imported from its module on
first use and then bound in the package, so importing the package (or
``ladderrep.cli``) imports no engine module.
"""

import importlib

_EXPORTS = {
    "core": (
        "CuspidalLabel",
        "GroupKind",
        "GrothendieckElement",
        "HalfInt",
        "InvalidSegmentError",
        "LadderError",
        "NotStandardModuleError",
        "Parity",
        "RankMismatchError",
        "Segment",
        "StandardModule",
        "TemperedParam",
        "TemperedPiece",
        "ZERO_REP",
        "ZeroRep",
        "hi",
        "is_zero",
    ),
    "datum": (
        "DatumBlock",
        "DatumValidationError",
        "LadderDatum",
        "LanglandsData",
        "canonical_form",
        "is_canonical",
        "langlands_data_of",
        "standard_module_of",
        "validate_datum",
    ),
    "graph": (
        "GraphParseError",
        "JacquetTerm",
        "LadderGraph",
        "aubert_dual",
        "build_graph",
        "derivative",
        "graph_to_datum",
        "is_supercuspidal",
        "jacquet_expansion",
        "parse_colored_vertices",
        "supp_ladder",
    ),
    "support": (
        "SupportMultiset",
        "UnsupportedParameterError",
        "project_ps",
        "supp_discrete_series",
    ),
    "formula": (
        "GLCombination",
        "GLLadder",
        "SigmaElement",
        "TableRow",
        "assemble_i_sigma",
        "determinantal_formula",
        "enumerate_sigma",
        "gl_determinantal_formula",
        "sigma_table",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__version__ = "0.1.0"


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            # bound here, so each name is resolved once
            value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
