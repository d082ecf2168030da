"""Kalck-Karmazyn algebras R_{r,a}, their flat deformations via bounding
cochains on the lattice model, and the matrix orders of Q-Gorenstein
smoothings of Wahl singularities, all cross-validated against exact oracles.
"""

from .resarith import (SingularityParams, WahlParams, InvalidParamsError,
                       inverse_mod, gamma, is_orange, m_of, hj_fraction)
from .polyring import Poly, S, T, tsub, acoef, parse_poly, format_poly
from .kkalg import (AlgebraTable, kk_product_closed, kk_product_rect,
                    kk_table, dual_relabel, young_diagram, YoungDiagram,
                    gauss_word, self_intersection_count)
from .deform import (AinfTable, hidden_ainf, visible_contributions, full_ainf,
                     insert_cochain, diff_matrix, DiffMatrix, CochainSpec,
                     check_point, deformed_table, SpecNotFlatError)
from .order import (OrderTable, order_entry, build_order, structure_constants,
                    constants_table, fiber_at, certify_full_matrix_fiber,
                    fiber_zero_report, infinity_fiber, wahl_cochain,
                    cross_check, format_order_matrix)
from .verify import run_suite, suite_kk, suite_deform, suite_order, suite_cross

__version__ = '1.0.0'
