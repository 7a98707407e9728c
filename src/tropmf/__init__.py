"""Matching fields for Gr(3,n), their tropical line arrangements, and
exact verification of adjacent-swap mutations of their polytopes."""

from .arrange import (Arrangement, Covector, NotFound, OnBoundary,
                      TropicalLine, adjacent, apexes, cell111, covector_at,
                      induce_geometric, type_at, x_order)
from .mfcore import (BadSize, GenericityReport, MatchingField, SizeMismatch,
                     Tableau, TiedX, TieError, Triple, WeightMatrix,
                     block_diagonal, block_diagonal_weights, diagonal,
                     genericity, induce, matching_field_from_text,
                     matching_field_to_text, mf_diff, normalize,
                     plucker_weights, tableau_sign, triples,
                     weight_matrix_from_text, weight_matrix_to_text)
from .mutate import (MutationCertificate, MutationData, NotSwappable,
                     PatternMismatch, SlabViolation, WitnessEntry, build_wf,
                     certificate_to_text, certify, expected_flip,
                     matrix_digest, parse_certificate, star, swap,
                     tropical_map, witness_table)
from .planner import (EndpointMismatch, Plan, PlanError, parse_plan,
                      plan_block_to_diagonal, plan_to_order, plan_to_text)
from .polytope import (BadIndex, LatticePoint, NotInSet, ShapeMismatch,
                       VertexSet, hull_equal, is_hull_vertex, member,
                       midpoint, pair, tableau_of, vertex_of, vertices)
from .regions import (Boundary, Case, NotAdjacent, Region, RegionAssignment,
                      classify, region_halfplanes)

__all__ = [name for name in dir() if not name.startswith("_")]
