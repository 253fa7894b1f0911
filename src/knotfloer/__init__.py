"""Combinatorial knot invariants from planar diagrams.

Modules:
  diagrams   PD codes, validation, mirrors, connected sums, faces
  signature  Goeritz-form signature and determinant
  fox        Wirtinger presentations, Fox calculus, Alexander polynomials,
             signed generator spectra
  seifert    the independent Seifert-matrix route to the Alexander polynomial
  altgen     marked partial resolutions, smallness, reduced ranks
  filtered   filtered chain complexes, cancellation, reduction
  linalg     exact rank, nullspace, determinants and signature: F2 bitset
             rows, sparse Q rows, integer Bareiss, polynomial determinants by
             interpolation; the only place rows are eliminated
  laurent    Laurent polynomials and Alexander normalization
  surgery    subquotient complexes, large-surgery homology, h-invariants
  maslov     combinatorial Maslov indices of domains on cellulated surfaces
  table      the built-in knot table
  cli        command-line front end
"""

__version__ = "0.1.0"

__all__ = [
    "altgen",
    "cli",
    "diagrams",
    "filtered",
    "fox",
    "laurent",
    "linalg",
    "maslov",
    "seifert",
    "signature",
    "surgery",
    "table",
]
