"""Direction sets of affine point sets over small finite fields.

Compute the directions determined by a point set of AG(2,q), the
geometric and algebraic moduli attached to them, build linear sets by
projecting canonical subgeometries, and verify the classification
statements exhaustively at desk scale.
"""

__version__ = "0.1.0"

from .field import (Field, SoundnessError, make_field, subfield_elements,
                    subfield_orders, subfields)
from .geometry import (AffinePointSet, DirectionSet, LineTable, apply_collineation,
                       check_line_congruence, direction_modulus, direction_of,
                       directions_of, geometric_invariants, is_maximal,
                       line_profile)
from .redei import (BivariatePoly, RedeiSystem, SlopeTable,
                    algebraic_invariants, redei_polynomial, redei_system,
                    root_count, specialized_tail, tail_power)
from .linsets import (AffineLinearSpec, ProjectiveLinearSpec,
                      WeightedProjectiveSet, build_affine_linear,
                      closure_witness, is_subfield_linear, plane_set,
                      project_subgeometry, realize_direction_set,
                      subfield_subspaces)
from .analysis import (STATEMENTS, Verdict, quotient_extension,
                       section5_reports, verify_statement)
from .search import (CompletionQuery, SearchConfig, SearchReport,
                     complete_set, enumerate_sets, hunt, sweep)
