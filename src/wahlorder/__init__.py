"""Kalck-Karmazyn algebras R_{r,a}, their flat deformations via bounding
cochains on the lattice model, and the matrix orders of Q-Gorenstein
smoothings of Wahl singularities, all cross-validated against exact oracles.
Each public name is imported from the module that defines it on first use.
"""

import importlib

_EXPORTS = {
    'resarith': ('SingularityParams', 'WahlParams', 'InvalidParamsError',
                 'inverse_mod', 'gamma', 'is_orange', 'm_of', 'hj_fraction'),
    'polyring': ('Poly', 'S', 'T', 'tsub', 'acoef', 'parse_poly', 'format_poly'),
    'kkalg': ('AlgebraTable', 'kk_product_closed', 'kk_product_rect',
              'kk_table', 'dual_relabel', 'young_diagram', 'YoungDiagram',
              'gauss_word', 'self_intersection_count'),
    'ainf': ('AinfTable', 'visible_contributions', 'full_ainf'),
    'deform': ('insert_cochain', 'diff_matrix', 'DiffMatrix', 'CochainSpec',
               'check_point', 'deformed_table', 'SpecNotFlatError'),
    'order': ('OrderTable', 'order_entry', 'build_order', 'structure_constants',
              'constants_table', 'fiber_at', 'certify_full_matrix_fiber',
              'fiber_zero_report', 'infinity_fiber', 'wahl_cochain',
              'cross_check', 'format_order_matrix'),
    'verify': ('run_suite', 'suite_kk', 'suite_deform', 'suite_order',
               'suite_cross'),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = list(_MODULE_OF)

__version__ = '1.0.0'


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f'module {__name__!r} has no attribute {name!r}')
    module = importlib.import_module(f'.{_MODULE_OF[name]}', __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return __all__
