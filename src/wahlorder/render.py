"""Text, JSON, and SVG renderers.

All output is deterministic: term order, key order, and geometry are fixed,
so identical invocations produce byte-identical bytes.
"""

from __future__ import annotations

from .resarith import SingularityParams, is_orange
from .polyring import Poly, format_poly
from .kkalg import AlgebraTable, YoungDiagram, gauss_word


def _coeff_str(c) -> str:
    return format_poly(c) if isinstance(c, Poly) else str(c)


def table_text(table: AlgebraTable, header: str) -> str:
    """The header, then the nontrivial products, one per line, plus the unit
    convention."""
    lines = [header, f'dimension {table.dim}; w_0 is the unit']
    nontrivial = table.nontrivial_products()
    if not nontrivial:
        lines.append('all products of non-unit basis vectors vanish')
    for (j, i), cell in nontrivial:
        rhs = ' + '.join(
            f'w_{k}' if (cs := _coeff_str(c)) == '1' else f'({cs}) w_{k}'
            for k, c in sorted(cell.items()))
        lines.append(f'w_{j} w_{i} = {rhs}')
    return '\n'.join(lines) + '\n'


def table_json(table: AlgebraTable, r: int, a: int) -> dict:
    products = []
    for (j, i), cell in table.nontrivial_products():
        for k, c in sorted(cell.items()):
            entry = {'j': j, 'i': i, 'k': k}
            cs = _coeff_str(c)
            if cs != '1':
                entry['coeff'] = cs
            products.append(entry)
    return {'dim': table.dim, 'products': products, 'r': r, 'a': a}


def gauss_json(params: SingularityParams) -> dict:
    return {'r': params.r, 'a': params.a, 'b': params.b,
            'word': gauss_word(params)}


def diff_matrix_json(dm) -> dict:
    r = dm.params.r
    return {
        'r': r, 'a': dm.params.a,
        'entries': [{'i': i, 'j': j, 'value': format_poly(p)}
                    for i in sorted(dm.rows)
                    for j, p in sorted(dm.rows[i].items())],
    }


def order_json(order) -> dict:
    from .order import structure_constants
    consts = structure_constants(order)
    return {
        'n': order.n, 'q': order.q,
        'cells': [[[{'sign': s, 'exp': e, 'k': k} for (s, e, k) in order.cells[i][j]]
                   for j in range(order.n)] for i in range(order.n)],
        'structure_constants': [
            {'j': j, 'i': i, 'k': k, 'value': format_poly(p)}
            for (j, i), cell in sorted(consts.items())
            for k, p in sorted(cell.items())],
    }


def dumps(obj: dict) -> str:
    import json
    return json.dumps(obj, indent=2, sort_keys=True) + '\n'


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_CELL = 40
_PAD = 30


def _svg_header(width, height):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">')


def lattice_svg(params: SingularityParams) -> str:
    """Orange sublattice and labelled Young diagram, in the style of the
    figures: gray lattice dots, filled orange circles, numbered boxes, on
    the square [0, r + 1]^2 (every box lies inside it)."""
    r = params.r
    ext = r + 1
    size = 2 * _PAD + ext * _CELL
    diag = YoungDiagram(params)

    def X(x):
        return _PAD + x * _CELL

    def Y(y):
        return size - _PAD - y * _CELL

    parts = [_svg_header(size, size)]
    parts.append(f'<rect width="{size}" height="{size}" fill="white"/>')
    # Young diagram boxes under the dots
    for (x, y, label) in diag.boxes():
        parts.append(
            f'<rect x="{X(x)}" y="{Y(y + 1)}" width="{_CELL}" height="{_CELL}" '
            f'fill="none" stroke="#888" stroke-width="1"/>')
        parts.append(
            f'<text x="{X(x) + _CELL // 2}" y="{Y(y) - _CELL // 2 + 5}" '
            f'font-size="14" text-anchor="middle" fill="#333">{label}</text>')
    for x in range(ext + 1):
        for y in range(ext + 1):
            if is_orange((x, y), params):
                parts.append(f'<circle cx="{X(x)}" cy="{Y(y)}" r="6" fill="orange"/>')
            else:
                parts.append(f'<circle cx="{X(x)}" cy="{Y(y)}" r="2" fill="#999"/>')
    parts.append(
        f'<text x="{_PAD}" y="{_PAD - 10}" font-size="16" fill="black">'
        f'r={r}, a={params.a}</text>')
    parts.append('</svg>')
    return '\n'.join(parts) + '\n'
