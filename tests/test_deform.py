import hashlib
import random
import re
from functools import lru_cache
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import wahlorder.ainf as ainf_mod
import wahlorder.deform as deform_mod
from wahlorder.resarith import SingularityParams
from wahlorder.polyring import (Poly, S, T, tsub, acoef, parse_poly, format_poly,
                                PolyParseError, MAX_BITS)
from wahlorder.kkalg import AlgebraTable, kk_table, poly_table
from wahlorder.ainf import visible_contributions, full_ainf, AinfTable
from wahlorder.deform import (insert_cochain, NotInsertableError,
                              diff_matrix, CochainSpec,
                              check_point, deformed_table, SpecNotFlatError,
                              DeformedOps)
from wahlorder.verify import (a1_diff_expected, component_specs_15_4,
                              component_specs_19_7, coprime_pairs, wahl_pairs)
from wahlorder.order import wahl_cochain

ONE = Poly.const(1)


def _code(g):
    index, degree = g
    return 2 * index + degree


def _add(table, slots, out, coeff):
    """Write the m_k entry with inputs slots (generators (i, d), highest slot
    first), output out and coefficient coeff = (c0, c1), meaning c0 + c1 s,
    into table as codes through the table's accumulation; no validation."""
    cells = (table.m1, table.m2, table.m3)[len(slots) - 1]
    key = tuple(map(_code, slots))
    ainf_mod._accumulate(((cells, key, _code(out), coeff),))


def _hidden(params):
    """The hidden part of the A-infinity table alone: the units, the
    per-crossing triples and the word-pair families of every slot."""
    table = AinfTable()
    ainf_mod._store_hidden(params, table, [True] * params.r)
    return table


def _degree(slots):
    """The output degree that the grading gives an m_k entry with inputs
    slots: sum deg(inputs) + 2 - k."""
    return sum(d for _, d in slots) + 2 - len(slots)


def _as_poly(table):
    """{'m1': ..., 'm2': ..., 'm3': ...} of table decoded: keyed by tuples of
    input generators (index, degree), with Poly coefficients, in the table's
    order."""
    def gen(code):
        return (code >> 1, code & 1)

    def cell(c):
        return {gen(out): Poly({(): c0, ((S, 1),): c1})
                for out, (c0, c1) in c.items()}

    return {name: {tuple(map(gen, k)): cell(c) for k, c in cells.items()}
            for name, cells in (('m1', table.m1), ('m2', table.m2),
                                ('m3', table.m3))}


def test_hidden_r2_matches_worked_example():
    # x = w_1, xbar = (1,1), q = (0,1), e = (0,0)
    m3 = _as_poly(_hidden(SingularityParams(2, 1)))['m3']
    x, xb, q = (1, 0), (1, 1), (0, 1)
    assert m3[(x, x, xb)] == {x: Poly.const(-1)}
    assert m3[(x, xb, xb)] == {xb: ONE}
    assert m3[(xb, x, xb)] == {xb: Poly.const(-1)}
    assert m3[(x, xb, q)] == {q: ONE}
    assert m3[(xb, x, q)] == {q: Poly.const(-1)}
    # the Gauss-word B family at x = y gives the remaining worked product
    assert m3[(x, x, xb)] == {x: Poly.const(-1)}
    assert (x, x, q) not in m3  # q-insertions at corners live in the visible part


def test_hidden_unit_and_pairing():
    table = _hidden(SingularityParams(9, 2))
    t = _as_poly(table)
    for i in range(9):
        assert t['m2'][((i, 0), (0, 0))] == {(i, 0): ONE}
        assert t['m2'][((0, 0), (i, 0))] == {(i, 0): ONE}
        assert t['m2'][((i, 1), (0, 0))] == {(i, 1): ONE}
        assert t['m2'][((0, 0), (i, 1))] == {(i, 1): Poly.const(-1)}
        if i:
            assert t['m2'][((i, 1), (i, 0))] == {(0, 1): ONE}
            assert t['m2'][((i, 0), (i, 1))] == {(0, 1): Poly.const(-1)}
    # per-crossing triples
    for i in range(1, 9):
        assert t['m3'][((i, 1), (i, 0), (i, 1))] == {(i, 1): Poly.const(-1)}
        assert t['m3'][((i, 1), (i, 0), (0, 1))] == {(0, 1): Poly.const(-1)}
        assert t['m3'][((i, 0), (i, 1), (0, 1))] == {(0, 1): ONE}
    assert table.degrees_present() <= {0, 1}


def _hidden_by_position(params):
    """The hidden m_2 and m_3 as code dicts, enumerated by label instead of
    by occurrence: the label x sits at position [-a x] of the second half of
    the Gauss word, and the first half lists the labels descending, so x
    comes before y there iff x > y.  Sums are kept in plain ints (every
    hidden coefficient is an integer) and zeros dropped at the end."""
    r = params.r
    m2, m3 = {}, {}

    def add(cells, key, out, c):
        cell = cells.setdefault(key, {})
        cell[out] = cell.get(out, 0) + c

    for i in range(r):
        w, wbar = 2 * i, 2 * i + 1
        add(m2, (w, 0), w, 1)
        add(m2, (wbar, 0), wbar, 1)
        add(m2, (0, wbar), wbar, -1)
        if i != 0:
            add(m2, (0, w), w, 1)
            add(m2, (wbar, w), 1, 1)
            add(m2, (w, wbar), 1, -1)
    for i in range(1, r):
        w, wbar = 2 * i, 2 * i + 1
        add(m3, (wbar, w, wbar), wbar, -1)
        add(m3, (wbar, w, 1), 1, -1)
        add(m3, (w, wbar, 1), 1, 1)
    pos = [0] + [-params.a * x % r for x in range(1, r)]
    for x in range(1, r):
        wx, bx = 2 * x, 2 * x + 1
        for y in range(1, r):
            wy, by = 2 * y, 2 * y + 1
            if x != y and pos[x] < pos[y]:  # both in the second half
                add(m3, (wy, bx, wx), wy, 1)
                add(m3, (bx, wx, by), by, -1)
            # x in the first half, y in the second
            add(m3, (wx, bx, by), by, 1)
            add(m3, (wy, wx, bx), wy, -1)
            if x > y:  # both in the first half
                add(m3, (by, wx, bx), by, -1)
                add(m3, (wx, bx, wy), wy, -1)
    return tuple({key: {out: (c, 0) for out, c in cell.items() if c}
                  for key, cell in cells.items() if any(cell.values())}
                 for cells in (m2, m3))


def test_hidden_ainf_matches_the_position_enumeration():
    for params in coprime_pairs(24):
        table = _hidden(params)
        assert not table.m1
        assert (table.m2, table.m3) == _hidden_by_position(params), params


def test_visible_r2_bigon():
    t = _as_poly(visible_contributions(SingularityParams(2, 1)))
    s = Poly.var(S)
    x, xb, q = (1, 0), (1, 1), (0, 1)
    # products: w_1^2 = s e and the Morse-maximum readings m_2(q, x) = s xbar
    assert t['m2'][(x, x)] == {(0, 0): s}
    assert t['m2'][(q, x)] == {xb: s}
    assert t['m2'][(x, q)] == {xb: -s}
    # the two differential readings cancel: no m1 left
    assert t['m1'] == {}


def test_visible_zero_limit_is_kk():
    # with s = 0 and no insertions, only the SW-orange triangles survive
    for (r, a) in ((9, 2), (7, 6), (12, 5)):
        params = SingularityParams(r, a)
        m2 = _as_poly(visible_contributions(params))['m2']
        table = kk_table(params)
        zero = {S: Poly.zero()}
        for (a2, a1), cell in m2.items():
            if a2[1] == 0 and a1[1] == 0:
                got = {}
                for out, c in cell.items():
                    cz = c.substitute(zero)
                    if not cz.is_zero():
                        assert cz == Poly.const(1)
                        got[out[0]] = 1
                assert got == table.product(a2[0], a1[0])


def _entrywise_sum(*tables):
    """{'m1': ..., 'm2': ..., 'm3': ...} of the tables added entry by entry,
    zero coefficients and empty cells dropped."""
    total = {}
    for name in ('m1', 'm2', 'm3'):
        acc = {}
        for t in tables:
            for key, cell in _as_poly(t)[name].items():
                for out, c in cell.items():
                    acc[(key, out)] = acc.get((key, out), Poly.zero()) + c
        nested = {}
        for (key, out), c in acc.items():
            if not c.is_zero():
                nested.setdefault(key, {})[out] = c
        total[name] = nested
    return total


@pytest.mark.parametrize('r,a', [(2, 1), (5, 2), (9, 2), (15, 4), (16, 3)])
def test_full_ainf_is_hidden_plus_visible(r, a):
    params = SingularityParams(r, a)
    full = full_ainf(params)
    want = _entrywise_sum(_hidden(params), visible_contributions(params))
    assert _as_poly(full) == want


# sha256 of repr([[(c, X, Y, ne_orange) for each permitted rectangle] ...])
# over every coprime (r, a) with r <= 24, recorded before the enumeration's
# never-taken guards were deleted, and kept since the walk yields runs
_RECTANGLES_DIGEST = (
    '7aedefdbc1bb7f1615a8ae1e28ea4e667c2fb37109bb4324f43a9061e7fbd17b')


def _expanded(runs):
    """The rectangles of runs (c, X, top, ne_Y) as (c, X, Y, ne_orange), in
    walk order: heights 1 .. top - 1, then ne_Y with its NE corner orange."""
    return [rect for c, X, top, ne_Y in runs
            for rect in chain(((c, X, Y, False) for Y in range(1, top)),
                              [(c, X, ne_Y, True)] if ne_Y else ())]


def test_permitted_rectangles_are_pinned():
    rects = [_expanded(ainf_mod._rectangle_runs(SingularityParams(r, a)))
             for r in range(2, 25) for a in range(1, r) if gcd(a, r) == 1]
    digest = hashlib.sha256(repr(rects).encode()).hexdigest()
    assert digest == _RECTANGLES_DIGEST


# sha256 of repr([[list of (key, list(cell.items())) for m1, m2, m3] ...])
# of full_ainf over the instances of each case, recorded before m2 and m3
# were stored without accumulation: keys, outputs, coefficients and every
# dict order
_TABLE_DIGESTS = {
    'universal': '7995f596fbc558c614dec2a8f7db16161769b3bbec3679f76d4c7855cadf1f25',
    'odd': '4c2cbf181170e884b64e0f2429f05d512fa06dc8560b05b65a4c6ffa470ae823',
    'wahl': '41b8deb32359d25f79d7b95774b51a28e3737171d07f917c8e647f429e829d4c',
}


def _table_instances(case):
    """(params, live) of a digest case: every coprime (r, a) with r <= 24,
    with every slot live or the odd slots only; or every Wahl pair with
    n <= 5, with the multiples of n live, the slots of wahl_cochain."""
    if case == 'wahl':
        return [(SingularityParams(n * n, n * q - 1), set(range(0, n * n, n)))
                for n, q in wahl_pairs(5)]
    return [(params, None if case == 'universal' else set(range(1, params.r, 2)))
            for params in coprime_pairs(24)]


@pytest.mark.parametrize('case', sorted(_TABLE_DIGESTS))
def test_full_ainf_tables_are_pinned(case):
    tables = [[[(key, list(cell.items())) for key, cell in cells.items()]
               for cells in (table.m1, table.m2, table.m3)]
              for table in (full_ainf(params, live)
                            for params, live in _table_instances(case))]
    digest = hashlib.sha256(repr(tables).encode()).hexdigest()
    assert digest == _TABLE_DIGESTS[case]


def _restricted(table, live):
    """table with the entries that read a degree-1 slot outside live
    dropped, as nested lists that keep every dict order: keys, then the
    outputs of each cell."""
    return [[(key, list(cell.items())) for key, cell in cells.items()
             if all(code >> 1 in live for code in key if code & 1)]
            for cells in (table.m1, table.m2, table.m3)]


@pytest.mark.parametrize('r', range(2, 13))
def test_live_slots_build_the_whole_table_filtered(r):
    # the enumeration skips what a dead slot drops; what it keeps is the
    # whole table's, in the whole table's order
    rng = random.Random(r)
    for a in range(1, r):
        if gcd(a, r) != 1:
            continue
        params = SingularityParams(r, a)
        full = full_ainf(params)
        lives = [set(), set(range(r)), set(range(1, r)), {0}, *(
            {i for i in range(r) if rng.random() < p} for p in (0.2, 0.5, 0.8))]
        for live in lives:
            assert _restricted(full_ainf(params, live), range(r)) == \
                _restricted(full, live), (a, live)


@pytest.mark.parametrize('n,q', [(7, 2), (8, 3)])
def test_wahl_live_slots_build_the_whole_table_filtered(n, q):
    # r = 49 and 64, where most SW labels are dead: every rectangle is read
    # and each reading with a dead slot dropped, in the whole table's order
    r = n * n
    params = SingularityParams(r, n * q - 1)
    sub = wahl_cochain(n, q).substitution()
    live = {i for i in range(r) if sub[tsub(i)]}
    assert _restricted(full_ainf(params, live), range(r)) == \
        _restricted(full_ainf(params), live)


@pytest.mark.parametrize('n,q', wahl_pairs(6))
def test_wahl_insertion_from_the_live_slots_matches_the_reference(n, q):
    # the table of the cochain's live slots gives insert_cochain's output of
    # the whole table, orders included, which is the entry-by-entry
    # reference with the cochain substituted
    r = n * n
    params, spec = SingularityParams(r, n * q - 1), wahl_cochain(n, q)
    sub = spec.substitution()
    live = {i for i in range(r) if sub[tsub(i)]}
    full, table = full_ainf(params), full_ainf(params, live)
    assert _restricted(table, range(r)) == _restricted(full, live)
    ops, whole = insert_cochain(table, r, spec), insert_cochain(full, r, spec)
    for got, want, reference in zip(
            (ops.differentials, ops.products),
            (whole.differentials, whole.products),
            _reference_insertion(full, r)):
        assert _ordered(got) == _ordered(want)
        assert (_ordered_outputs_sorted(got)
                == _ordered_outputs_sorted(_substituted(reference, sub)))


def _t(*indices):
    w = ONE
    for i in indices:
        w = w * Poly.var(tsub(i))
    return w


# (input slots, highest first) -> (differential or product, its key, the
# weight) or None when the insertion rule drops the entry; the output has the
# degree that the grading gives the inputs (its parity where none can exist)
INSERTION_CASES = [
    (((1, 0),), ('d', 1, ONE)),                            # m_1(x)
    (((1, 1),), None),                                     # degree-1 m_1 input
    (((2, 0), (3, 0)), ('p', (2, 3), ONE)),                # m_2(x, y)
    (((1, 1), (2, 0)), ('d', 2, _t(1))),                   # m_2(b, x)
    (((3, 0), (2, 1)), ('d', 3, _t(2))),                   # m_2(x, b)
    (((0, 1), (2, 0)), None),                              # t_0 slot
    (((3, 0), (0, 1)), None),                              # t_0 slot
    (((1, 1), (2, 1)), None),                              # m_2(b, b)
    (((1, 1), (2, 1), (3, 0)), ('d', 3, _t(1, 2))),        # m_3(b, b, x)
    (((1, 1), (2, 0), (3, 1)), ('d', 2, _t(1, 3))),        # m_3(b, x, b)
    (((1, 0), (2, 1), (3, 1)), ('d', 1, _t(2, 3))),        # m_3(x, b, b)
    (((2, 1), (2, 1), (1, 0)), ('d', 1, _t(2, 2))),        # repeated slot
    (((1, 1), (2, 0), (3, 0)), ('p', (2, 3), _t(1))),      # m_3(b, x, y)
    (((1, 0), (2, 1), (3, 0)), ('p', (1, 3), _t(2))),      # m_3(x, b, y)
    (((3, 0), (2, 0), (1, 1)), ('p', (3, 2), _t(1))),      # m_3(x, y, b)
    (((1, 0), (2, 0), (3, 0)), None),                      # three inputs
    (((1, 1), (2, 1), (3, 1)), None),                      # m_3(b, b, b)
    (((2, 1), (0, 1), (1, 0)), None),                      # t_0 slot
    (((0, 1), (1, 0), (2, 0)), None),                      # t_0 slot
]


@pytest.mark.parametrize('slots,expected', INSERTION_CASES)
def test_insertion_rule(slots, expected):
    r, coeff = 4, Poly.var(S, 1, 3)
    table = AinfTable()
    _add(table, slots, (1, _degree(slots) % 2), (0, 3))
    ops = insert_cochain(table, r)
    assert list(ops.differentials) == list(range(r))
    assert list(ops.products) == [(j, i) for j in range(r) for i in range(r)]
    found = {('d', i): c for i, c in ops.differentials.items() if c}
    found.update({('p', k): c for k, c in ops.products.items() if c})
    if expected is None:
        assert found == {}
    else:
        kind, key, weight = expected
        assert found == {(kind, key): {1: coeff * weight}}


def test_insertion_accumulates_across_arities():
    # m_1, m_2 and m_3 entries landing in the same cell add up, and a sum
    # that cancels leaves no coefficient behind
    s = Poly.var(S)
    table = AinfTable()
    _add(table, ((3, 0),), (1, 1), (0, 1))
    _add(table, ((3, 0), (2, 1)), (1, 1), (1, 0))
    _add(table, ((1, 1), (2, 1), (3, 0)), (1, 1), (1, 0))
    _add(table, ((1, 1), (2, 1), (3, 0)), (2, 1), (0, 1))
    _add(table, ((2, 1), (1, 1), (3, 0)), (1, 1), (-1, 0))
    _add(table, ((2, 1), (1, 1), (3, 0)), (2, 1), (0, -1))
    _add(table, ((2, 0), (3, 0)), (1, 0), (1, 0))
    _add(table, ((1, 1), (2, 0), (3, 0)), (1, 0), (1, 0))
    ops = insert_cochain(table, 4)
    assert ops.differentials == {0: {}, 1: {}, 2: {}, 3: {1: s + _t(2)}}
    assert {k: c for k, c in ops.products.items() if c} == {
        (2, 3): {1: ONE + _t(1)}}


def _reference_insertion(ainf, r):
    """insert_cochain read entry by entry in Poly arithmetic: the weight is a
    product of Poly.var factors, each contribution a Poly sum, and an output
    or key is dropped as soon as it reaches zero.  Cells are keyed by the
    index of each output."""
    diffs, prods = {}, {}
    table = _as_poly(ainf)
    for slots, cell in chain(table['m1'].items(), table['m2'].items(),
                             table['m3'].items()):
        inputs = tuple(i for i, d in slots if d == 0)
        ts = [i for i, d in slots if d == 1]
        if 0 in ts or len(inputs) not in (1, 2):
            continue
        target, key = (diffs, inputs[0]) if len(inputs) == 1 else (prods, inputs)
        weight = ONE
        for i in ts:
            weight = weight * Poly.var(tsub(i))
        for out, coeff in cell.items():
            cur = target.setdefault(key, {})
            new = cur.get(out, Poly.zero()) + coeff * weight
            if new.is_zero():
                cur.pop(out, None)
                if not cur:
                    del target[key]
            else:
                cur[out] = new

    def indexed(cell):
        return {index: c for (index, _), c in cell.items()}

    return ({i: indexed(diffs.get(i, {})) for i in range(r)},
            {(j, i): indexed(prods.get((j, i), {}))
             for j in range(r) for i in range(r)})


def _ordered(cells):
    """Cells as nested lists, so that comparing them compares key order at
    every level: keys, outputs and the terms of each coefficient."""
    return [(k, [(out, list(c.terms.items())) for out, c in cell.items()])
            for k, cell in cells.items()]


def _assert_matches_reference(table, r):
    ops = insert_cochain(table, r)
    diffs, prods = _reference_insertion(table, r)
    assert _ordered(ops.differentials) == _ordered(diffs)
    assert _ordered(ops.products) == _ordered(prods)
    return ops


@pytest.mark.parametrize('r', range(2, 13))
def test_insertion_matches_poly_reference(r):
    for a in range(1, r):
        if gcd(a, r) == 1:
            _assert_matches_reference(full_ainf(SingularityParams(r, a)), r)


def _nonzero_spec(r, value):
    """The spec with t_i = value(i) for 0 < i < r, s free unless value(0)
    is given; every value nonzero, so no entry is dropped at dispatch and
    each cell keeps the output order of the universal cochain."""
    assignments = {tsub(i): value(i) for i in range(1, r)}
    if (s := value(0)) is not None:
        assignments[S] = s
    return CochainSpec(r, assignments)


@pytest.mark.parametrize('r', range(2, 13))
def test_products_read_after_the_differentials_match_the_reference(r):
    # the product pass runs at the first read of products, after the
    # differentials are decoded: the same cells, keys, outputs and term
    # order as the entry-by-entry reading, under the universal cochain and
    # under a spec
    def value(i):
        t = Poly.var(T)
        return Poly.var(S) + t if i == 0 else Poly.var(tsub(r - i)) - t * Poly.const(i)

    for a in range(1, r):
        if gcd(a, r) != 1:
            continue
        ainf = _ainf(r, a)
        diffs, prods = _reference_insertion(ainf, r)
        spec = _nonzero_spec(r, value)
        sub = spec.substitution()
        for ops, want_d, want_p in (
                (insert_cochain(ainf, r), diffs, prods),
                (insert_cochain(ainf, r, spec), _substituted(diffs, sub),
                 _substituted(prods, sub))):
            assert 'products' not in vars(ops)  # not built before the read
            assert _ordered(ops.differentials) == _ordered(want_d)
            assert _ordered(ops.products) == _ordered(want_p)
            assert ops.products is ops.products  # built once, then kept


# sha256 of repr((r, a, _ordered(differentials), _ordered(products))) over
# every coprime (r, a) with r <= 18, under the universal cochain and under
# the spec of _digest_spec; recorded before the insertion summed each target
# in one loop, so it pins every key, output and term order it had
_INSERTION_DIGESTS = {
    'universal': '51c384e7c07b3b0696824542e40013967abad2cca087df6a651973e71cb66826',
    'spec': '883524004f106aafe50800f2dd078f56a8baa2beff22d32aa4a4288614078c16',
}


def _digest_spec(r):
    """t_i = t_(r-i) - i t and s = s + t: every value nonzero and none the
    variable itself, so every monomial is substituted."""
    t = Poly.var(T)
    return _nonzero_spec(r, lambda i: Poly.var(S) + t if i == 0 else
                         Poly.var(tsub(r - i)) - t * Poly.const(i))


def test_insertion_matches_its_recorded_digest():
    digests = {name: hashlib.sha256() for name in _INSERTION_DIGESTS}
    for params in coprime_pairs(18):
        r, ainf = params.r, full_ainf(params)
        for name, spec in (('universal', None), ('spec', _digest_spec(r))):
            ops = insert_cochain(ainf, r, spec)
            digests[name].update(repr((r, params.a, _ordered(ops.differentials),
                                       _ordered(ops.products))).encode())
    assert {name: h.hexdigest() for name, h in digests.items()} == _INSERTION_DIGESTS


def _spy_on_insertion(monkeypatch):
    """A list that gets one item per insertion pass: 'd' for the
    differentials, 'p' for the products."""
    passes, real = [], deform_mod._summed

    def spy(ainf, weight, r, keep_s, diff):
        passes.append('d' if diff else 'p')
        return real(ainf, weight, r, keep_s, diff)

    monkeypatch.setattr(deform_mod, '_summed', spy)
    return passes


def test_the_flatness_verdict_never_builds_the_products(monkeypatch):
    passes = _spy_on_insertion(monkeypatch)
    params = SingularityParams(15, 4)
    diff_matrix(params)
    assert passes == ['d']
    for spec in component_specs_15_4().values():
        assert check_point(params, spec)
    assert passes == ['d'] * 4
    passes.clear()
    bad = CochainSpec(15, {tsub(1): Poly.var(tsub(1)), tsub(2): Poly.var(tsub(2))})
    with pytest.raises(SpecNotFlatError):
        deformed_table(params, bad)
    assert passes == ['d']
    # the products are built by their first read, once
    passes.clear()
    ops = insert_cochain(full_ainf(params), 15)
    assert passes == ['d']
    ops.products, ops.products
    assert passes == ['d', 'p']
    passes.clear()
    deformed_table(params, next(iter(component_specs_15_4().values())))
    assert passes == ['d', 'p']


class _Unreadable(dict):
    """A cell that refuses to be read."""

    def items(self):
        raise RuntimeError('a product cell was read')


def test_the_differential_pass_reads_no_product_cell():
    # every entry with two degree-0 inputs, the ones that land in m_2^b, made
    # unreadable: the differentials, their matrix and the flat-locus
    # generators are built all the same, and only a read of the products
    # reads those cells
    params = SingularityParams(15, 4)
    table, whole = full_ainf(params), insert_cochain(full_ainf(params), 15)
    unreadable = 0
    for cells in (table.m2, table.m3):
        for key, cell in cells.items():
            if sum(not code & 1 for code in key) == 2:
                cells[key] = _Unreadable(cell)
                unreadable += 1
    assert unreadable
    ops = insert_cochain(table, 15)
    assert _ordered(ops.differentials) == _ordered(whole.differentials)
    dm = diff_matrix(params, ops)
    assert dm.upper_entries() == diff_matrix(params, whole).upper_entries()
    for _ in range(2):
        with pytest.raises(RuntimeError, match='a product cell was read'):
            ops.products


@pytest.mark.parametrize('r', range(2, 11))
def test_per_monomial_substitution_is_poly_substitute_of_each_cell(r):
    # insert_cochain substitutes each monomial once and sums the images of
    # a cell's terms; that is Poly.substitute of the finished cell, term
    # order included, also where the values make terms cancel
    t = Poly.var(T)

    def var(i):
        return Poly.var(tsub(i))

    def mirrored(i):
        # t_i = t_(r-i) - t_i, which is 0 only at the middle index
        if i == 0:
            return var(1) * var(r - 1) - Poly.var(S)
        return var(r - i) - var(i) if 2 * i != r else t

    values = {
        'equal, s free': lambda i: None if i == 0 else t,
        'equal, s = -t^2': lambda i: -(t * t) if i == 0 else t,
        'mirrored, s free': lambda i: None if i == 0 else var(r - i) + t,
        'mirrored, s assigned': mirrored,
    }
    for a in range(1, r):
        if gcd(a, r) != 1:
            continue
        ainf = _ainf(r, a)
        universal = insert_cochain(ainf, r)
        for name, value in values.items():
            spec = _nonzero_spec(r, value)
            sub = spec.substitution()
            ops = insert_cochain(ainf, r, spec)
            for got, cells in ((ops.differentials, universal.differentials),
                               (ops.products, universal.products)):
                assert _ordered(got) == _ordered(_substituted(cells, sub)), name


def test_insertion_drops_on_zero_and_reappends():
    # entries that cancel to zero and come back: a dropped term or output
    # returns at the end of its dict, exactly as in Poly arithmetic
    x, A, B, C = (3, 0), (1, 1), (2, 1), (1, 0)
    b1, b2, b3 = (1, 1), (2, 1), (3, 1)
    s = Poly.var(S)
    table = AinfTable()
    _add(table, (b1, b2, x), A, (1, 0))           # A: t_1 t_2
    _add(table, (b1, b2, x), B, (1, 0))           # B: t_1 t_2
    _add(table, (b1, x, b3), B, (0, 1))           # B: t_1 t_2 + s t_1 t_3
    _add(table, (b2, b1, x), A, (-1, 0))          # A cancels
    _add(table, (b2, b1, x), B, (-1, 0))          # the t_1 t_2 term of B cancels
    _add(table, (b2, x, b1), B, (1, 0))           # ... and comes back last
    _add(table, (b2, x, b1), A, (1, 0))           # A comes back after B
    _add(table, ((1, 1), (2, 0), x), C, (1, 0))
    _add(table, ((2, 0), (1, 1), x), C, (-1, 0))  # products[(2, 3)] cancels
    _add(table, ((2, 0), x, (2, 1)), C, (1, 0))   # ... and comes back
    ops = _assert_matches_reference(table, 4)
    assert list(ops.differentials[3]) == [2, 1]  # B, then A
    assert ops.differentials[3] == {2: s * _t(1, 3) + _t(1, 2), 1: _t(1, 2)}
    assert list(ops.differentials[3][2].terms) == [
        ((S, 1), (tsub(1), 1), (tsub(3), 1)), ((tsub(1), 1), (tsub(2), 1))]
    assert {k: c for k, c in ops.products.items() if c} == {(2, 3): {1: _t(2)}}


def test_accumulate_stores_once_and_leaves_no_empty_cell():
    # coefficients c0 + c1 s are pairs (c0, c1)
    table, s = {}, (0, 1)
    ainf_mod._accumulate([(table, 'k', 2, (0, 0))])
    assert table == {}
    ainf_mod._accumulate([(table, 'k', 2, s)])
    assert table['k'][2] is s  # stored as it is, not copied
    ainf_mod._accumulate([(table, 'k', 2, (0, -1))])
    assert table == {}


def _insertion(table, product_fault):
    """A function that inserts the universal cochain into table at r = 4.
    With product_fault the call is made here and has to succeed, and the
    function reads the products, whose pass raises the fault."""
    if product_fault:
        ops = insert_cochain(table, 4)
        return lambda: ops.products
    return lambda: insert_cochain(table, 4)


@pytest.mark.parametrize('slots,key', [
    (((4, 0), (1, 0)), '(4, 1)'),              # product key outside Z_4
    (((1, 0), (-1, 0)), '(1, -1)'),
    (((4, 0),), '4'),                          # differential key outside Z_4
    (((2, 1), (-1, 0)), '-1'),
    (((4, 1), (1, 0)), '4'),                   # cochain slot outside Z_4
    (((-1, 1), (1, 0)), '-1'),
])
def test_insertion_rejects_indices_outside_z_r(slots, key):
    table = AinfTable()
    _add(table, slots, (1, _degree(slots)), (1, 0))
    insertion = _insertion(table, product_fault=key.startswith('('))
    with pytest.raises(NotInsertableError, match=re.escape(key)):
        insertion()


def test_out_of_range_key_raises_even_when_it_cancels():
    table = AinfTable()
    _add(table, ((1, 1), (4, 0), (2, 0)), (1, 0), (1, 0))
    _add(table, ((4, 0), (1, 1), (2, 0)), (1, 0), (-1, 0))
    ops = insert_cochain(table, 4)
    with pytest.raises(NotInsertableError, match=re.escape('(4, 2)')):
        ops.products


@pytest.mark.parametrize('entries,error,message', [
    ([(((5, 0), (1, 0)), (1, 0)), (((4, 0), (2, 0)), (1, 0))],
     NotInsertableError, 'product key (5, 1)'),
    ([(((4, 0), (1, 0)), (1, 0)), (((4, 0),), (1, 1))],
     NotInsertableError, 'differential key 4'),
    ([(((4, 0),), (1, 1)), (((5, 1), (1, 0), (2, 0)), (1, 0))],
     NotInsertableError, 'differential key 4'),
    ([(((4, 0),), (1, 1)), (((5, 1), (1, 0)), (1, 1))],
     NotInsertableError, 'cochain slot index 5'),
    ([(((1, 0),), (2, 0)), (((4, 0), (1, 0)), (1, 0))],
     ArithmeticError, 'dw_1 hit w_2 of degree 0'),
    ([(((2, 0), (3, 0)), (1, 1)), (((1, 0),), (2, 0))],
     ArithmeticError, 'dw_1 hit w_2 of degree 0'),
], ids=['products-in-table-order', 'differential-key-first', 'slot-first',
        'differential-slot-first', 'keys-before-outputs',
        'differentials-before-products'])
def test_the_first_error_of_a_table_is_raised(entries, error, message):
    # each pass checks the slot indices of its entries at dispatch, then its
    # keys, then its outputs; the differential pass runs first, so the slot
    # fault of a product entry (slot-first) comes after the key fault of a
    # differential, and that of a differential entry before it
    table = AinfTable()
    for slots, out in entries:
        _add(table, slots, out, (1, 0))
    insertion = _insertion(table, product_fault=message.startswith('product'))
    with pytest.raises(error) as exc:
        insertion()
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize('faults', [
    [(((1, 0),), (4, 1), 'dw_1 hit output code 9'),
     (((4, 0),), (1, 1), 'differential key 4'),
     (((5, 1), (1, 1), (2, 0)), (1, 1), 'cochain slot index 5')],
    [(((1, 0), (2, 0)), (4, 0), 'w_1 w_2 hit output code 8'),
     (((4, 0), (1, 0)), (1, 0), 'product key (4, 1)'),
     (((5, 1), (1, 0), (2, 0)), (1, 0), 'cochain slot index 5')],
], ids=['differential-pass', 'product-pass'])
def test_slot_then_key_then_output_faults_are_raised(faults):
    # an output fault, a key fault and a slot fault (slots, output, message),
    # in that table order: the slot fault is raised; without it, the key
    # fault; without both, the output fault.  The differential pass raises
    # at the call, the product pass at the read of the products
    product_fault = faults[0][2].startswith('w_')
    for kept in (3, 2, 1):
        table = AinfTable()
        for slots, out, _ in faults[:kept]:
            _add(table, slots, out, (1, 0))
        with pytest.raises(NotInsertableError) as exc:
            _insertion(table, product_fault)()
        assert str(exc.value).startswith(faults[kept - 1][2])


@pytest.mark.parametrize('slots,out,message', [
    (((1, 0),), (2, 0), 'dw_1 hit w_2 of degree 0'),
    (((3, 0), (2, 1)), (0, 0), 'dw_3 hit w_0 of degree 0'),
    (((2, 0), (3, 0)), (1, 1), 'w_2 w_3 hit wbar_1 of degree 1'),
    (((1, 1), (2, 0), (3, 0)), (0, 1), 'w_2 w_3 hit wbar_0 of degree 1'),
], ids=['m1-to-w', 'm2-to-w', 'm2-to-wbar', 'm3-to-wbar'])
def test_insertion_rejects_an_output_of_the_wrong_degree(slots, out, message):
    # m_1^b(w_i) lands in degree 1 and m_2^b(w_j, w_i) in degree 0
    table = AinfTable()
    _add(table, slots, out, (1, 0))
    insertion = _insertion(table, product_fault=message.startswith('w_'))
    with pytest.raises(ArithmeticError, match=f'^{message}$'):
        insertion()


@pytest.mark.parametrize('slots,out,message', [
    (((2, 0), (3, 0)), (4, 0), 'w_2 w_3 hit output code 8'),  # m_2 output w_4
    (((1, 0),), (4, 1), 'dw_1 hit output code 9'),
    (((1, 0),), (-1, 1), 'dw_1 hit output code -1'),
], ids=['product-w4', 'differential-wbar4', 'differential-negative'])
def test_insertion_rejects_an_output_outside_z_r(slots, out, message):
    table = AinfTable()
    _add(table, slots, out, (1, 0))
    insertion = _insertion(table, product_fault=message.startswith('w_'))
    with pytest.raises(NotInsertableError,
                       match=f'^{message}, not a generator over Z_4$'):
        insertion()


@pytest.mark.parametrize('slots,out,error,message', [
    (((2, 0), (3, 0)), (1, 1), ArithmeticError,
     '^w_2 w_3 hit wbar_1 of degree 1$'),
    (((2, 0), (3, 0)), (5, 0), NotInsertableError,
     '^w_2 w_3 hit output code 10, not a generator'),
    (((5, 1), (2, 0), (3, 0)), (1, 0), NotInsertableError,
     '^cochain slot index 5 is not in Z_5$'),
], ids=['wrong-degree', 'outside-z-r', 'slot-outside-z-r'])
def test_a_product_fault_is_raised_by_every_read_of_the_products(
        slots, out, error, message):
    # one faulty product entry in an otherwise whole table: the call, its
    # differentials and their matrix do not read it
    params = SingularityParams(5, 2)
    table = full_ainf(params)
    _add(table, slots, out, (1, 0))
    ops = insert_cochain(table, 5)
    whole = insert_cochain(full_ainf(params), 5)
    assert _ordered(ops.differentials) == _ordered(whole.differentials)
    assert diff_matrix(params, ops).rows is ops.differentials
    for _ in range(2):
        with pytest.raises(error, match=message):
            ops.products
        assert 'products' not in vars(ops)  # no partial product table is kept


def test_entries_a_zero_slot_drops_are_not_checked():
    # m_2(wbar_1, w_4) at r = 4: the input index 4 is read under the
    # universal cochain, but a spec with t_1 = 0 drops the entry unread;
    # so does an output that cancels
    table = AinfTable()
    _add(table, ((1, 1), (4, 0)), (1, 1), (1, 0))
    with pytest.raises(NotInsertableError, match='differential key 4'):
        insert_cochain(table, 4)
    ops = insert_cochain(table, 4, CochainSpec(4, {S: Poly.zero()}))
    assert not any(ops.differentials.values())
    table = AinfTable()
    _add(table, ((2, 0), (3, 0)), (4, 1), (1, 0))
    _add(table, ((2, 0), (3, 0)), (4, 1), (-1, 0))
    _add(table, ((1, 0),), (1, 1), (0, 1))
    assert insert_cochain(table, 4).differentials[1] == {1: Poly.var(S)}


@pytest.mark.parametrize('differentials', [
    {0: {1: ONE}, 1: {}, 2: {}},               # the unit is not closed
    {0: {}, 1: {}, 2: {0: ONE}},               # dw_2 hits wbar_0
    {0: {}, 1: {0: ONE}, 2: {}},               # dw_1 hits wbar_0
])
def test_diff_matrix_invariants_raise_arithmetic_error(differentials):
    with pytest.raises(ArithmeticError):
        diff_matrix(SingularityParams(3, 1), DeformedOps(differentials, lambda: {}))


def test_diff_matrix_reads_the_rows():
    # is_skew tests every pair, whichever of (i, j) and (j, i) is stored;
    # upper entries come sorted by position, whatever the row order
    t1, t2 = Poly.var(tsub(1)), Poly.var(tsub(2))
    params = SingularityParams(4, 1)
    skew_rows = {0: {}, 3: {1: -t2}, 1: {3: t2, 2: t1}, 2: {1: -t1}}
    zero = Poly.zero()
    for rows, skew in ((skew_rows, True),
                       ({0: {}, 1: {2: t1}, 2: {}}, False),
                       ({0: {}, 1: {}, 2: {1: t1}}, False),
                       ({0: {}, 1: {1: t1}, 2: {}}, False),
                       # a stored 0 is skew without its partner, on the
                       # diagonal too
                       ({0: {}, 1: {2: zero}, 2: {}}, True),
                       ({0: {}, 1: {}, 2: {1: zero, 2: zero}}, True),
                       ({0: {}, 1: {2: zero}, 2: {1: t1}}, False),
                       # one coefficient differs; one side has an extra term
                       ({0: {}, 1: {2: t1 + t2}, 2: {1: -t1 - t2 * Poly.const(2)}},
                        False),
                       ({0: {}, 1: {2: t1 + t2}, 2: {1: -t1}}, False),
                       ({0: {}, 1: {2: t1}, 2: {1: -t1 - t2}}, False),
                       ({0: {}, 1: {2: t1 + t2}, 2: {1: -t1 - t2}}, True),
                       ({0: {}, 1: {2: t1}, 2: {1: t1}}, False)):
        dm = diff_matrix(params, DeformedOps(rows, lambda: {}))
        assert dm.is_skew() == skew, rows
        assert dm.upper_entries() == sorted(
            ((i, j), p) for i, row in rows.items() for j, p in row.items() if i < j)
    assert dm.entry(2, 1) == t1 and dm.entry(1, 3).is_zero()


def test_misread_rectangle_raises_arithmetic_error(monkeypatch):
    # (5,2) has b = 3: the rectangle [0,1] x [1,2] has its NE corner at
    # label 4, so it cannot be an NE-orange rectangle
    monkeypatch.setattr(ainf_mod, '_rectangle_runs',
                        lambda params: iter([(1, 1, 1, 1)]))
    with pytest.raises(ArithmeticError, match='misread orange corner'):
        full_ainf(SingularityParams(5, 2))


def test_misread_rectangle_the_live_walk_skips_raises(monkeypatch):
    # (5,2) has b = 3: the rectangle [0,1] x [4,5] has its NW corner at the
    # orange label 0.  Its SW and NE labels, 4 and 2, are dead for a spec
    # with t_1 and t_3 alone nonzero, so the live walk reads nothing of it,
    # and still checks its corners
    monkeypatch.setattr(ainf_mod, '_rectangle_runs',
                        lambda params: iter([(4, 1, 2, 0)]))
    params, t1, t3 = SingularityParams(5, 2), Poly.var(tsub(1)), Poly.var(tsub(3))
    spec = CochainSpec(5, {tsub(1): t1, tsub(3): t3})
    for call in (check_point, deformed_table):
        with pytest.raises(ArithmeticError, match='misread orange corner'):
            call(params, spec)


def test_insert_cochain_zero_is_identity():
    params = SingularityParams(5, 2)
    ops = insert_cochain(full_ainf(params), 5)
    zero = {tsub(i): Poly.zero() for i in range(5)}
    zero[S] = Poly.zero()
    table = kk_table(params)
    for (j, i), cell in ops.products.items():
        got = {}
        for out, c in cell.items():
            cz = c.substitute(zero)
            if not cz.is_zero():
                got[out] = cz
        want = {k: Poly.const(v) for k, v in table.product(j, i).items()}
        assert got == want
    for i in range(5):
        dead = all(c.substitute(zero).is_zero() for c in ops.differentials[i].values())
        assert dead


def test_insert_cochain_r2():
    params = SingularityParams(2, 1)
    ops = insert_cochain(full_ainf(params), 2)
    # w_1^2 = s w_0 - t_1 w_1
    assert ops.products[(1, 1)] == {0: Poly.var(S), 1: Poly.var(tsub(1), 1, -1)}
    assert ops.differentials[1] == {}


def test_table_codes_generators_and_coefficients_as_ints():
    # (i, d) is the int 2i + d and c0 + c1 s the pair (c0, c1); keys are
    # tuples of codes written highest slot first, m_1's too.  At (2, 1),
    # w_0, wbar_0, w_1, wbar_1 are 0, 1, 2, 3: m_2(wbar_1, w_1) = wbar_0,
    # m_2(w_1, w_1) = s w_0, m_2(w_1, wbar_0) = -s wbar_1 and
    # m_3(w_1, w_1, wbar_1) = -w_1
    table = full_ainf(SingularityParams(2, 1))
    assert table.m1 == {}
    assert list(table.m2.items()) == [
        ((0, 0), {0: (1, 0)}), ((1, 0), {1: (1, 0)}), ((0, 1), {1: (-1, 0)}),
        ((2, 0), {2: (1, 0)}), ((0, 2), {2: (1, 0)}), ((3, 0), {3: (1, 0)}),
        ((0, 3), {3: (-1, 0)}), ((3, 2), {1: (1, 0)}), ((2, 3), {1: (-1, 0)}),
        ((2, 2), {0: (0, 1)}), ((1, 2), {3: (0, 1)}), ((2, 1), {3: (0, -1)})]
    assert list(table.m3.items()) == [
        ((3, 2, 3), {3: (-1, 0)}), ((3, 2, 1), {1: (-1, 0)}),
        ((2, 3, 1), {1: (1, 0)}), ((2, 3, 3), {3: (1, 0)}),
        ((2, 2, 3), {2: (-1, 0)})]
    # m_1(w_1) = s wbar_2 and m_1(w_2) = -s wbar_1 at (3, 1)
    assert full_ainf(SingularityParams(3, 1)).m1 == {(4,): {3: (0, -1)},
                                                     (2,): {5: (0, 1)}}


def test_hidden_insertion_a1_differentials():
    # hidden contributions alone: dw_i gets t_i t_j wbar_j for i < j and
    # -t_i t_j wbar_j for i > j
    r = 6
    ops = insert_cochain(_hidden(SingularityParams(r, 1)), r)
    for i in range(1, r):
        want = {}
        for j in range(1, r):
            if j == i:
                continue
            coeff = Poly.var(tsub(i)) * Poly.var(tsub(j))
            want[j] = coeff if i < j else -coeff
        assert ops.differentials[i] == want


def test_diff_matrix_examples():
    # r = 2: nothing to obstruct
    dm = diff_matrix(SingularityParams(2, 1))
    assert dm.entry(1, 1).is_zero() and dm.is_skew()
    # r = 4, a = 1: the second-component entry
    dm4 = diff_matrix(SingularityParams(4, 1))
    assert dm4.entry(1, 3) == parse_poly('t_2^2 + t_1 t_3 + s')
    assert dm4.entry(1, 2) == parse_poly('t_1 t_2')
    assert dm4.entry(2, 3) == parse_poly('t_2 t_3')
    # a = 1 closed formula
    for r in (3, 5, 8):
        dm = diff_matrix(SingularityParams(r, 1))
        for (i, j), want in a1_diff_expected(r).items():
            assert dm.entry(i, j) == want
    # skew for a non-trivial a
    assert diff_matrix(SingularityParams(15, 4)).is_skew()


def test_def0_generators_3_1():
    gens = diff_matrix(SingularityParams(3, 1)).upper_entries()
    assert [p for _, p in gens] == [parse_poly('t_1 t_2 + s')]


def test_check_point_examples():
    p4 = SingularityParams(4, 1)
    # all-zero point with s = 0 is flat
    assert check_point(p4, CochainSpec(4, {S: Poly.zero()}))
    # t_1 = 1, rest 0, s = 0: every generator vanishes (m_12 = t_1 t_2 etc.)
    assert check_point(p4, CochainSpec(4, {tsub(1): ONE, S: Poly.zero()}))
    # t_1 = t_2 = 1: m_12 = 1 != 0
    assert not check_point(p4, CochainSpec(4, {tsub(1): ONE, tsub(2): ONE,
                                               S: Poly.zero()}))
    # the Q-Gorenstein one-parameter locus is flat
    assert check_point(SingularityParams(9, 2), wahl_cochain(3, 1))


def test_component_parametrizations():
    p = SingularityParams(15, 4)
    for name, spec in component_specs_15_4().items():
        assert check_point(p, spec), name
    p = SingularityParams(19, 7)
    for name, spec in component_specs_19_7().items():
        assert check_point(p, spec), name


def test_deformed_table_r2():
    params = SingularityParams(2, 1)
    spec = CochainSpec(2, {tsub(1): Poly.var(tsub(1))})
    table = deformed_table(params, spec)
    assert table.product(1, 1) == {0: Poly.var(S), 1: Poly.var(tsub(1), 1, -1)}
    assert table.associator_violation() is None


def test_deformed_table_rejects_nonflat():
    params = SingularityParams(4, 1)
    bad = CochainSpec(4, {tsub(1): ONE, tsub(2): ONE, S: Poly.zero()})
    with pytest.raises(SpecNotFlatError) as exc:
        deformed_table(params, bad)
    assert exc.value.position == (1, 2)
    assert format_poly(exc.value.value) == '1'


def test_deformed_table_degenerates_to_kk():
    # specialize the free parameters of the r = 5 first component to zero
    params = SingularityParams(5, 1)
    t1, t4 = Poly.var(tsub(1)), Poly.var(tsub(4))
    spec = CochainSpec(5, {tsub(1): t1, tsub(4): t4, S: -(t1 * t4)})
    table = deformed_table(params, spec)
    zero = {tsub(1): Poly.zero(), tsub(4): Poly.zero()}
    collapsed = {}
    for (j, i), cell in table.products.items():
        got = {k: c.substitute(zero) for k, c in cell.items()}
        got = {k: c for k, c in got.items() if not c.is_zero()}
        if got:
            collapsed[(j, i)] = got
    assert AlgebraTable(5, collapsed) == poly_table(kk_table(params))


def test_cochain_spec_parse():
    text = """
    # free parameter and a relation
    t_1 = t_1
    t_3 = t_1^2 - 2
    s = -t_1 t_3
    """
    spec = CochainSpec.parse(text, 5)
    sub = spec.substitution()
    assert sub[tsub(1)] == Poly.var(tsub(1))
    assert sub[tsub(2)].is_zero()
    assert sub[tsub(3)] == parse_poly('t_1^2 - 2')
    assert sub[S] == parse_poly('-t_1 t_3')
    # runs of zeros, however long, read as 0 and 7
    zeros = '0' * 5000
    sub = CochainSpec.parse(f't_2 = {zeros}\nt_{zeros}3 = {zeros}7', 5).substitution()
    assert sub[tsub(2)].is_zero() and sub[tsub(3)] == Poly.const(7)
    with pytest.raises(ValueError):
        CochainSpec.parse('t_9 = 1', 5)
    with pytest.raises(ValueError):
        CochainSpec.parse('t_0 = 1', 5)
    with pytest.raises(ValueError):
        CochainSpec.parse('bogus', 5)
    with pytest.raises(PolyParseError, match="^line 2: index of 't_x' is "
                       "not an integer$"):
        CochainSpec.parse('t_1 = 1\nt_x = 1', 5)


@pytest.mark.parametrize('line,message', [
    ('t_2 = 1 +', 'unexpected end of input'),
    ('t_2 = (t_1', 'missing closing parenthesis'),
    ('t_2 = t_1 ? 1', "unexpected input at ' ? 1'"),
    ('t_2 == 1', "unexpected input at '= 1'"),
    ('t_2', 'expected `lhs = poly`'),
    ('u = 1', "unknown left-hand side 'u'"),
    ('t_x = 1', "index of 't_x' is not an integer"),
    ('t_0 = 1', 'cochain spec for r = 5 assigns t_0'),
    ('t_5 = 1', 'cochain spec for r = 5 assigns t_5'),
    ('t_-1 = 1', 'cochain spec for r = 5 assigns t_-1'),
    # indices and numbers are ASCII digit runs on both sides
    ('t_1_0 = t_1', "index of 't_1_0' is not an integer"),
    ('t_+3 = 1', "index of 't_+3' is not an integer"),
    ('t_ 3 = 1', "index of 't_ 3' is not an integer"),
    pytest.param('t_\u0663 = 1', "index of 't_\u0663' is not an integer",
                 id='arabic-indic index'),
    pytest.param('t_2 = \u0663', "unexpected input at ' \u0663'",
                 id='arabic-indic literal'),
    pytest.param('t_2 = t_\u0663', "unexpected input at '_\u0663'",
                 id='arabic-indic subscript'),
    pytest.param('t_' + '0' * 5000 + ' = 1',
                 'cochain spec for r = 5 assigns t_0', id='zero-run index'),
    ('t_1 = 2', 't_1 is assigned twice'),
    pytest.param('s = ' + '(' * 400 + 't_1' + ')' * 400,
                 'parentheses nested deeper than 100 levels', id='400 pairs'),
    pytest.param(f't_2 = {2 ** 4096}',
                 'the values hold more than 4096 bits of coefficients in all',
                 id='wide literal'),
    pytest.param(f't_2 = {2 ** 4000} {2 ** 96}',
                 'a product could hold a coefficient of more than 4096 bits',
                 id='wide product'),
])
def test_every_spec_error_names_its_line(line, message):
    text = f'# comment\nt_1 = t_1\n{line}  # trailing comment\nt_3 = 1\n'
    with pytest.raises(PolyParseError) as info:
        CochainSpec.parse(text, 5)
    assert str(info.value) == f'line 3: {message}'


def test_spec_coefficients_are_budgeted_in_all():
    half = 2 ** (MAX_BITS // 2 - 1)  # MAX_BITS // 2 bits
    text = f't_1 = {half} t_1\nt_2 = -{half}\n'
    spec = CochainSpec.parse(text, 5)
    assert sum(c.bit_length() for v in spec.assignments.values()
               for c in v.terms.values()) == MAX_BITS
    with pytest.raises(PolyParseError, match=f'^line 3: the values hold more '
                       f'than {MAX_BITS} bits of coefficients in all$'):
        CochainSpec.parse(text + 't_3 = 1\n', 5)


def test_parse_and_substitution_refuse_with_one_message():
    for v in (tsub(0), tsub(5), T):
        with pytest.raises(ValueError) as by_hand:
            CochainSpec(5, {v: Poly.const(1)}).substitution()
        assert str(by_hand.value) == (f'cochain spec for r = 5 assigns '
                                      f'{format_poly(Poly.var(v))}')
        if v != T:
            with pytest.raises(PolyParseError) as parsed:
                CochainSpec.parse(f'{format_poly(Poly.var(v))} = 1', 5)
            assert str(parsed.value) == f'line 1: {by_hand.value}'


# ---------------------------------------------------------------------------
# spec insertion against the oracle: insert universally, then substitute
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _ainf(r, a):
    return full_ainf(SingularityParams(r, a))


def _substituted(cells, sub):
    """cells with sub substituted into every coefficient, the outputs whose
    value vanishes dropped."""
    return {k: {out: v for out, c in cell.items() if (v := c.substitute(sub))}
            for k, cell in cells.items()}


def _ordered_outputs_sorted(cells):
    """_ordered with the outputs of each cell sorted.  Spec insertion keeps
    the key order and the term order of the oracle, but not always its
    output order: an output first reached by an entry that a zero slot drops
    comes later in the cell (the renderers sort outputs, and tables compare
    as dicts)."""
    return [(k, [(out, list(cell[out].terms.items())) for out in sorted(cell)])
            for k, cell in cells.items()]


def _assert_spec_matches_oracle(params, spec):
    """insert_cochain with spec is universal insertion followed by
    Poly.substitute, in key and term order; deformed_table is the oracle's
    table, or raises at the oracle's first surviving upper entry."""
    r = params.r
    ainf = _ainf(r, params.a)
    ops = insert_cochain(ainf, r, spec)
    universal = insert_cochain(ainf, r)
    sub = spec.substitution()
    diffs = _substituted(universal.differentials, sub)
    prods = _substituted(universal.products, sub)
    assert _ordered_outputs_sorted(ops.differentials) == _ordered_outputs_sorted(diffs)
    assert _ordered_outputs_sorted(ops.products) == _ordered_outputs_sorted(prods)
    surviving = [(ij, v) for ij, p in diff_matrix(params, universal).upper_entries()
                 if (v := p.substitute(sub))]
    if surviving:
        with pytest.raises(SpecNotFlatError) as exc:
            deformed_table(params, spec)
        position, value = surviving[0]
        assert exc.value.position == position
        assert list(exc.value.value.terms.items()) == list(value.terms.items())
        assert not check_point(params, spec)
    else:
        table = deformed_table(params, spec)
        want = AlgebraTable(r, prods)
        assert (_ordered_outputs_sorted(table.products)
                == _ordered_outputs_sorted(want.products))
        assert check_point(params, spec)


@pytest.mark.parametrize('n,q', wahl_pairs(6))
def test_wahl_spec_insertion_matches_oracle(n, q):
    _assert_spec_matches_oracle(SingularityParams(n * n, n * q - 1),
                                wahl_cochain(n, q))


@pytest.mark.parametrize('r,a,name,spec', [
    (r, a, name, spec)
    for (r, a), specs in (((15, 4), component_specs_15_4()),
                          ((19, 7), component_specs_19_7()))
    for name, spec in specs.items()])
def test_component_spec_insertion_matches_oracle(r, a, name, spec):
    _assert_spec_matches_oracle(SingularityParams(r, a), spec)


def test_zero_spec_insertion_matches_oracle():
    for params in coprime_pairs(12):
        _assert_spec_matches_oracle(params, CochainSpec(params.r, {S: Poly.zero()}))


@st.composite
def _specs(draw):
    """(params, spec) with r <= 9: each t_i zero, free, or a small polynomial
    in the t_j and t; s free, zero, or a small polynomial."""
    params = draw(st.sampled_from(list(coprime_pairs(9))))
    variables = [Poly.var(tsub(j)) for j in range(1, params.r)] + [Poly.var(T)]

    def small():
        p = Poly.zero()
        for _ in range(draw(st.integers(1, 2))):
            term = Poly.const(draw(st.sampled_from((-2, -1, 1, 2))))
            for v in draw(st.lists(st.sampled_from(variables), max_size=2)):
                term = term * v
            p = p + term
        return p

    assignments = {}
    for i in range(1, params.r):
        kind = draw(st.sampled_from(('zero', 'free', 'poly')))
        if kind == 'zero':
            if draw(st.booleans()):  # explicit, or left out
                assignments[tsub(i)] = Poly.zero()
        else:
            assignments[tsub(i)] = Poly.var(tsub(i)) if kind == 'free' else small()
    kind = draw(st.sampled_from(('zero', 'free', 'poly')))
    if kind != 'free':
        assignments[S] = Poly.zero() if kind == 'zero' else small()
    return params, CochainSpec(params.r, assignments)


@settings(max_examples=60, deadline=None)
@given(_specs())
def test_random_spec_insertion_matches_oracle(params_spec):
    _assert_spec_matches_oracle(*params_spec)


def test_universal_insertion_never_substitutes(monkeypatch):
    def must_not_substitute(self, sub):
        raise AssertionError('substituted on the universal path')

    monkeypatch.setattr(Poly, 'substitute', must_not_substitute)
    for params in coprime_pairs(10):
        diff_matrix(params)
    # a free spec: every value is the variable itself, or zero
    table = deformed_table(SingularityParams(2, 1),
                           CochainSpec(2, {tsub(1): Poly.var(tsub(1))}))
    assert table.product(1, 1) == {0: Poly.var(S), 1: Poly.var(tsub(1), 1, -1)}


def test_zero_values_drop_entries_instead_of_substituting(monkeypatch):
    real = Poly.substitute

    def nonzero_images_only(self, sub):
        assert all(sub.values()), 'a zero value was substituted'
        return real(self, sub)

    monkeypatch.setattr(Poly, 'substitute', nonzero_images_only)
    for (n, q) in wahl_pairs(5):
        deformed_table(SingularityParams(n * n, n * q - 1), wahl_cochain(n, q))
    for params in coprime_pairs(8):
        deformed_table(params, CochainSpec(params.r, {S: Poly.zero()}))


def _no_table_built(monkeypatch):
    def must_not_build(*args):
        raise AssertionError('an A-infinity table was built')

    monkeypatch.setattr(deform_mod, 'full_ainf', must_not_build)


def test_spec_for_another_r_is_rejected(monkeypatch):
    # read at r = 4, the r = 2 spec would leave t_2 and t_3 free: t_1 t_2
    # survives, although t_1 = t_1, s = 0 with t_2 = t_3 = 0 is flat at r = 4;
    # the spec is refused before any table is built
    params = SingularityParams(4, 1)
    values = {tsub(1): Poly.var(tsub(1)), S: Poly.zero()}
    assert check_point(params, CochainSpec(4, values))
    _no_table_built(monkeypatch)
    for call in (deformed_table, check_point):
        with pytest.raises(ValueError, match='spec for r = 2 read at r = 4'):
            call(params, CochainSpec(2, values))


@pytest.mark.parametrize('var', [tsub(0), tsub(4), tsub(7), T, acoef(1)])
def test_spec_assigning_a_variable_outside_the_cochain_is_rejected(var, monkeypatch):
    # parse rejects t_0 and t_i with i >= r; a constructed spec must too,
    # before any table is built
    spec = CochainSpec(4, {tsub(1): Poly.var(tsub(1)), var: Poly.const(1)})
    params = SingularityParams(4, 1)
    _no_table_built(monkeypatch)
    for call in (deformed_table, check_point):
        with pytest.raises(ValueError, match=re.escape(format_poly(Poly.var(var)))):
            call(params, spec)


@pytest.mark.parametrize('r', range(2, 17))
def test_full_ainf_is_graded(r):
    # every m_k entry has deg(out) = sum of the input degrees + 2 - k, the
    # degree of a code its parity bit; a spec drops entries before the
    # output check of insert_cochain sees them
    for a in range(1, r):
        if gcd(a, r) != 1:
            continue
        table = full_ainf(SingularityParams(r, a))
        for entries in (table.m1, table.m2, table.m3):
            for key, cell in entries.items():
                want = sum(code & 1 for code in key) + 2 - len(key)
                assert {out & 1 for out in cell} == {want}, (r, a, key, cell)
