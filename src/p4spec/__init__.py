"""Exact Laplacian spectra and P4 structure for small simple graphs.

The public names load on first use (PEP 562): `import p4spec` imports no
submodule, and `p4spec.classify` imports only `p4spec.p4` and what it needs.
"""

import importlib

__version__ = "0.1.0"

# shared by theorems.py and by the command line help, which must not load it
MAX_N = 8
THEOREMS = {
    "a": "cograph implies L-integral",
    "b": "P4-sparse and not cograph implies not L-integral",
    "c": "P4-extendible and not cograph implies not L-integral",
    "d": "spider implies not L-integral",
    "e": "P4-extendible graphs: exactly one of disconnected, co-disconnected, "
         "catalog member, midpoint extension",
    "f": "(7,3) and p4-connected on >= 7 vertices implies headless spider "
         "and not L-integral",
    "g": "L-integral iff the complement is L-integral",
    "h": "disjoint union multiplies Laplacian characteristic polynomials",
}

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "graphs": "Graph complement connected_components disjoint_union from_edge_list "
              "induced_subgraph is_connected join",
    "spectral": "ClosedFormSpectrum ExactSpectrum IntPolynomial SurdEigenvalue char_poly "
                "check_union_relation exact_spectrum is_l_integral laplacian "
                "numeric_spectrum quotient_matrix thin_spider_closed_form",
    "p4": "ClassificationReport SpiderSpec classify enumerate_p4 is_cograph "
          "is_p4_connected is_p4_extendible is_p4_reducible is_p4_sparse p4_count "
          "recognize_spider satisfies_q_t",
    "constructions": "case_iv_graph case_iv_polynomials family head_catalog standard "
                     "thick_spider thin_spider",
    "formats": "ParseError load_document parse_edge_list parse_graph6 serialize "
               "serialize_edge_list serialize_graph6",
    "dsl": "DslError parse_dsl",
    "theorems": "TheoremResult verify_theorems",
}.items() for name in names.split()}

__all__ = [*_EXPORTS, "THEOREMS"]


def __getattr__(name):
    # the attribute is not stored here: a later lookup reads the submodule's
    # current binding, which a tracer or a test may have replaced
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _EXPORTS.values():
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_EXPORTS.values()})
