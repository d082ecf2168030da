import hashlib
import json
import re
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import pytest

import wahlorder.cli as cli_mod
import wahlorder.deform as deform_mod
import wahlorder.kkalg as kkalg_mod
import wahlorder.order as order_mod
import wahlorder.verify as verify_mod
from wahlorder import schemas
from wahlorder.cli import main


def run_cli(*args, expect=0):
    proc = subprocess.run([sys.executable, '-m', 'wahlorder', *args],
                          capture_output=True, text=True)
    assert proc.returncode == expect, (proc.returncode, proc.stderr)
    return proc.stdout


def test_kk_table_output():
    out = run_cli('kk', '--r', '9', '--a', '2')
    assert 'w_4 w_1 = w_5' in out
    assert 'w_4 w_4 = w_8' in out
    assert out.count('w_4 w_') == 4


def test_kk_json_schema():
    out = run_cli('--format', 'json', 'kk', '--r', '4', '--a', '1')
    data = json.loads(out)
    jsonschema.validate(data, schemas.TABLE_SCHEMA)
    assert data['products'] == []  # square-zero radical: unit products only
    assert data['hj_fraction'] == [2, 2, 2]


def test_kk_svg_well_formed():
    out = run_cli('--format', 'svg', 'kk', '--r', '7', '--a', '6')
    root = ET.fromstring(out)
    assert root.tag.endswith('svg')
    body = out
    assert 'orange' in body and '<rect' in body


def test_kk_invalid_params_exit_2():
    run_cli('kk', '--r', '9', '--a', '3', expect=2)
    run_cli('kk', '--r', '1', '--a', '1', expect=2)


def test_gauss_json():
    out = run_cli('--format', 'json', 'gauss', '--r', '2', '--a', '1')
    data = json.loads(out)
    jsonschema.validate(data, schemas.GAUSS_SCHEMA)
    assert data['word'] == [1, 1]


def test_deform_ideal():
    out = run_cli('deform', '--r', '15', '--a', '4', '--ideal')
    line = next(l for l in out.splitlines() if l.startswith('m_(1,14)'))
    assert 't_1 t_14' in line and line.endswith('+ s')
    data = json.loads(run_cli('--format', 'json', 'deform', '--r', '15',
                              '--a', '4', '--ideal'))
    jsonschema.validate(data, schemas.DIFF_SCHEMA)


def test_deform_table_with_spec(tmp_path):
    spec = tmp_path / 'free.spec'
    spec.write_text('# keep t_1 and s free\nt_1 = t_1\n')
    out = run_cli('deform', '--r', '2', '--a', '1', '--table',
                  '--spec', str(spec))
    assert 'w_1 w_1 = (s) w_0 + (-t_1) w_1' in out


def test_deform_table_second_component(tmp_path):
    spec = tmp_path / 'second.spec'
    spec.write_text('t_2 = t_2\ns = -t_2^2\n')
    out = run_cli('deform', '--r', '4', '--a', '1', '--table',
                  '--spec', str(spec))
    assert 'w_1 w_3 = (t_2) w_2' in out
    assert 'w_3 w_1 = (-t_2^2) w_0 + (-t_2) w_2' in out


def test_deform_table_rejects_nonflat(tmp_path):
    spec = tmp_path / 'bad.spec'
    spec.write_text('t_1 = 1\nt_2 = 1\ns = 0\n')
    proc = subprocess.run([sys.executable, '-m', 'wahlorder', 'deform',
                           '--r', '4', '--a', '1', '--table', '--spec', str(spec)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert 'not flat' in proc.stderr


def test_a_large_nonflat_spec_names_its_first_surviving_entry(tmp_path, capsys):
    # t_32 a 66-term value with small coefficients, every other t_i free:
    # the verdict comes from the differentials alone
    spec = tmp_path / 't32.spec'
    spec.write_text('\n'.join(
        ['t_32 = ' + ' + '.join(f'{i} t_{i} t_{i % 63 + 1}' for i in range(1, 67))]
        + [f't_{i} = t_{i}' for i in range(1, 64) if i != 32]) + '\n')
    assert main(['deform', '--r', '64', '--a', '1', '--table',
                 '--spec', str(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == ('error: cochain is not flat; first surviving '
                            'entry (1, 2): t_1 t_2\n')


def test_order_paper_format():
    out = run_cli('--format', 'paper', 'order', '--n', '3', '--q', '2')
    assert 't^2 a_7 + t a_4' in out
    assert '-t^2 a_6 - t a_3 + a_0' in out


def test_order_json_schema():
    out = run_cli('--format', 'json', 'order', '--n', '2', '--q', '1')
    data = json.loads(out)
    jsonschema.validate(data, schemas.ORDER_SCHEMA)


def test_order_fibers():
    out = run_cli('order', '--n', '3', '--q', '1', '--fiber', 'zero')
    assert 'matches R_{9,2}' in out
    out = run_cli('order', '--n', '2', '--q', '1', '--fiber', 'infinity')
    assert 'k -> -k' in out
    out = run_cli('order', '--n', '2', '--q', '1', '--fiber', 'generic',
                  '--at', '1')
    assert 'spans Mat_2' in out


def test_verify_suite_and_json():
    out = run_cli('--format', 'json', 'verify', '--suite', 'kk', '--max-r', '8')
    data = json.loads(out)
    jsonschema.validate(data, schemas.VERIFY_SCHEMA)
    assert data['passed'] is True


def test_determinism():
    a = run_cli('--format', 'json', 'kk', '--r', '9', '--a', '2')
    b = run_cli('--format', 'json', 'kk', '--r', '9', '--a', '2')
    assert a == b
    a = run_cli('--format', 'paper', 'order', '--n', '4', '--q', '3')
    b = run_cli('--format', 'paper', 'order', '--n', '4', '--q', '3')
    assert a == b


def test_out_file(tmp_path):
    target = tmp_path / 'out.svg'
    run_cli('--format', 'svg', '--out', str(target), 'kk', '--r', '9', '--a', '2')
    assert target.exists()
    ET.parse(target)


# Fraction reads any Unicode decimal digit; TAU reads ASCII only
@pytest.mark.parametrize('value', ['1/0', 'abc', '\u0663', '1e\u0663'])
def test_bad_fraction_exits_2_without_a_traceback(value):
    proc = subprocess.run([sys.executable, '-m', 'wahlorder', 'order',
                           '--n', '2', '--q', '1', '--at', value],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ''
    assert 'Traceback' not in proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        f"wahlorder order: error: argument --at: not a rational number: "
        f"'{value}'")


# 5000 digits are more than Python converts from a string by default
@pytest.mark.parametrize('value', ['1e10000000', '1e-10000000', '1' * 201,
                                   pytest.param('1' * 5000, id='1x5000')])
def test_tau_over_the_digit_budget_exits_2_before_anything_is_built(value):
    # Fraction('1e10000000') alone builds a 33-million-bit integer
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, '-m', 'wahlorder', 'order',
                           '--n', '10', '--q', '9', '--at', value],
                          capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2
    assert proc.stdout == ''
    assert 'Traceback' not in proc.stderr
    assert [line for line in proc.stderr.splitlines() if 'error' in line] == [
        f"wahlorder order: error: argument --at: TAU is over the size budget "
        f"of order (numerator and denominator <= {cli_mod.MAX_TAU_DIGITS} "
        f"digits in lowest terms)"]


def test_a_negative_fraction_tau_is_given_with_an_equals_sign(capsys):
    # argparse reads `--at -1/2` as an option; `--at=-1/2` is a value
    assert main(['order', '--n', '2', '--q', '1', '--at=-1/2']) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == 'structure constants at t=-1/2'
    assert captured.err == ''


# sha256 of stdout of `order --n 3 --q 2 --at TAU`, recorded before TAU had
# a digit budget
@pytest.mark.parametrize('value,digest,json_digest', [
    ('1e3', '8f631c7051942addddb29e37df5c5529da5d39ce1037b414ab2de31625d19475',
     '78d99fce8e21b17f27330aaa7fd83839a74db39a738e4daa7c3e053ceb8a6a8d'),
    ('1/2', '3c62e7c3b082df0debc178f307dfd526c751da12da9bde90a0a57886ef9f9f7b',
     '139b29247e7a9b8b6ae92b78b50928ceec70a4f03c75ffd64c74cad58b63596c'),
    ('0.5', '3c62e7c3b082df0debc178f307dfd526c751da12da9bde90a0a57886ef9f9f7b',
     '139b29247e7a9b8b6ae92b78b50928ceec70a4f03c75ffd64c74cad58b63596c'),
])
def test_tau_within_the_digit_budget_prints_as_before(value, digest,
                                                      json_digest, capsys):
    for prefix, want in (([], digest), (['--format', 'json'], json_digest)):
        assert main([*prefix, 'order', '--n', '3', '--q', '2',
                     '--at', value]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want


def test_a_directory_as_a_file_exits_2(capsys, tmp_path):
    for argv in (['deform', '--r', '2', '--a', '1', '--table',
                  '--spec', str(tmp_path)],
                 ['kk', '--r', '4', '--a', '1', '--out', str(tmp_path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ''
        assert captured.err == (f"error: [Errno 21] Is a directory: "
                                f"'{tmp_path}'\n")


def test_a_bad_spec_index_exits_2_with_its_line(capsys, tmp_path):
    spec = tmp_path / 'bad.spec'
    spec.write_text('t_1 = t_1\nt_x = 1\n')
    assert main(['deform', '--r', '4', '--a', '1', '--table',
                 '--spec', str(spec)]) == 2
    assert capsys.readouterr().err == (
        "error: line 2: index of 't_x' is not an integer\n")


@pytest.mark.parametrize('line,message', [
    ('t_2 = 1 +', 'unexpected end of input'),
    ('t_0 = 1', 'cochain spec for r = 5 assigns t_0'),
    ('t_9 = 1', 'cochain spec for r = 5 assigns t_9'),
    # a digit run too wide for any budget is refused before int() reads it,
    # and not echoed
    pytest.param('t_2 = ' + '9' * 5000, 'a number has more than 1234 digits',
                 id='5000-digit-literal'),
    pytest.param('t_2 = t^' + '9' * 5000, 'a number has more than 1234 digits',
                 id='5000-digit-exponent'),
    pytest.param('t_2 = t_' + '9' * 5000, 'a number has more than 1234 digits',
                 id='5000-digit-subscript'),
    pytest.param('t_' + '9' * 5000 + ' = 1', 'a number has more than 1234 digits',
                 id='5000-digit-lhs-subscript'),
])
def test_a_bad_spec_line_exits_2_with_its_line(capsys, tmp_path, line, message):
    spec = tmp_path / 'bad.spec'
    spec.write_text(f't_1 = t_1\n{line}\n')
    assert main(['deform', '--r', '5', '--a', '2', '--table',
                 '--spec', str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == f'error: line 2: {message}\n'


def test_deeply_nested_spec_exits_2_without_a_traceback(tmp_path):
    spec = tmp_path / 'deep.spec'
    spec.write_text('t_1 = ' + '(' * 400 + 't_1' + ')' * 400 + '\n')
    proc = subprocess.run([sys.executable, '-m', 'wahlorder', 'deform',
                           '--r', '3', '--a', '1', '--table', '--spec', str(spec)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ''
    assert proc.stderr == ('error: line 1: parentheses nested deeper than '
                           '100 levels\n')


@pytest.mark.parametrize('values,message', [
    ([f't_{i} = (t_{i} + t_{i + 1} + 1)^3' for i in range(1, 63)]
     + ['t_63 = (t_63 + t_1 + 1)^3'],
     'line 13: the values hold more than 128 terms in all'),
    (['t_1 = (t_1 + t_2 + 1)^100'],
     'line 1: a power could hold more than 128 terms'),
    ([f't_{i} = {2 ** 1000} t_{i}' for i in range(1, 64)],
     'line 5: the values hold more than 4096 bits of coefficients in all'),
    (['t_32 = ' + ' + '.join(f'{10 ** 4000 + i} t_{i} t_{i % 63 + 1}'
                             for i in range(1, 67))]
     + [f't_{i} = t_{i}' for i in range(1, 64) if i != 32],
     'line 1: a number has more than 1234 digits'),
    (['t_1 = ((2^128)^128)^128 t_1'],
     'line 1: a power could hold a coefficient of more than 4096 bits'),
], ids=['630-terms', 'power-100', '5-lines-of-1001-bits', '4000-digits',
        'nested-power'])
def test_a_spec_over_the_term_budget_exits_2_at_once(tmp_path, values, message):
    spec = tmp_path / 'big.spec'
    spec.write_text('\n'.join(values) + '\n')
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, '-m', 'wahlorder', 'deform',
                           '--r', '64', '--a', '1', '--table', '--spec', str(spec)],
                          capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2
    assert proc.stdout == ''
    assert proc.stderr == f'error: {message}\n'


@pytest.mark.parametrize('argv,message', [
    (['--suite', 'cross', '--max-r', '5'], 'the cross suite does not read max_r'),
    (['--suite', 'order', '--max-r', '5'], 'the order suite does not read max_r'),
    (['--suite', 'kk', '--max-n', '3'], 'the kk suite does not read max_n'),
], ids=['cross-max-r', 'order-max-r', 'kk-max-n'])
def test_verify_refuses_a_bound_its_suite_does_not_read(argv, message,
                                                        monkeypatch, capsys):
    def must_not_run(**bounds):
        raise AssertionError('ran a suite for a refused call')

    for name, (_, axes) in verify_mod.SUITES.items():
        monkeypatch.setitem(verify_mod.SUITES, name, (must_not_run, axes))
    assert main(['verify', *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == f'error: {message}\n'


def test_main_entry_in_process(capsys):
    rc = main(['gauss', '--r', '5', '--a', '1'])
    assert rc == 0
    out = capsys.readouterr().out
    assert 'Gauss word: 4, 3, 2, 1, 4, 3, 2, 1' in out


def test_arithmetic_error_exits_1(monkeypatch, capsys):
    def not_closed(basis, targets):
        raise ArithmeticError('product (1, 1): coordinate 2 is not in Z[t]')

    monkeypatch.setattr(order_mod, 'solve_in_basis', not_closed)
    rc = main(['order', '--n', '2', '--q', '1', '--fiber', 'zero'])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == 'error: product (1, 1): coordinate 2 is not in Z[t]\n'


def test_size_budget_exits_2_before_building(monkeypatch, capsys):
    def must_not_build(*args, **kw):
        raise AssertionError('built past the size budget')

    for module, name in ((cli_mod, 'SingularityParams'),
                         (kkalg_mod, 'kk_table'), (kkalg_mod, 'gauss_word'),
                         (deform_mod, 'diff_matrix'),
                         (order_mod, 'build_order'),
                         (verify_mod, 'run_suite')):
        monkeypatch.setattr(module, name, must_not_build)
    calls = [
        (['kk', '--r', str(cli_mod.MAX_KK_R + 1), '--a', '1'],
         f'r = {cli_mod.MAX_KK_R + 1} is over the size budget of kk '
         f'(r <= {cli_mod.MAX_KK_R})'),
        (['kk', '--r', '100000', '--a', '1', '--format', 'svg'],
         f'r = 100000 is over the size budget of kk (r <= {cli_mod.MAX_KK_R})'),
        (['gauss', '--r', str(10 ** 12), '--a', '1'],
         f'r = {10 ** 12} is over the size budget of gauss '
         f'(r <= {cli_mod.MAX_GAUSS_R})'),
        (['deform', '--r', str(cli_mod.MAX_DEFORM_R + 1), '--a', '1'],
         f'r = {cli_mod.MAX_DEFORM_R + 1} is over the size budget of deform '
         f'(r <= {cli_mod.MAX_DEFORM_R})'),
        (['order', '--n', str(cli_mod.MAX_ORDER_N + 1), '--q', '1',
          '--fiber', 'zero'],
         f'n = {cli_mod.MAX_ORDER_N + 1} is over the size budget of order '
         f'(n <= {cli_mod.MAX_ORDER_N})'),
        (['verify', '--suite', 'kk', '--max-r', str(cli_mod.MAX_VERIFY_R + 1)],
         f'--max-r = {cli_mod.MAX_VERIFY_R + 1} is over the size budget of '
         f'verify (--max-r <= {cli_mod.MAX_VERIFY_R})'),
        (['verify', '--max-r', '8', '--max-n', str(cli_mod.MAX_VERIFY_N + 1)],
         f'--max-n = {cli_mod.MAX_VERIFY_N + 1} is over the size budget of '
         f'verify (--max-n <= {cli_mod.MAX_VERIFY_N})'),
        (['verify', '--suite', 'kk', '--max-r', '0'], '--max-r = 0 is below 2'),
        (['verify', '--suite', 'order', '--max-n', '1'], '--max-n = 1 is below 2'),
        (['verify', '--max-n', '-3'], '--max-n = -3 is below 2'),
    ]
    for argv, message in calls:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ''
        assert captured.err == f'error: {message}\n'


_LONG = '9' * 5000


@pytest.mark.parametrize('argv,option,budget', [
    (['kk', '--r', _LONG, '--a', '1'], '--r',
     f'kk (r <= {cli_mod.MAX_KK_R})'),
    (['gauss', '--r', '7', '--a', _LONG], '--a',
     f'gauss (a < r <= {cli_mod.MAX_GAUSS_R})'),
    (['deform', '--r', '0' * 5000 + '4', '--a', '1'], '--r',
     f'deform (r <= {cli_mod.MAX_DEFORM_R})'),
    (['order', '--n', '3', '--q', _LONG], '--q',
     f'order (q < n <= {cli_mod.MAX_ORDER_N})'),
    (['verify', '--max-r', _LONG], '--max-r',
     f'verify (--max-r <= {cli_mod.MAX_VERIFY_R})'),
    (['verify', '--max-n', f'-{_LONG}'], '--max-n',
     f'verify (--max-n <= {cli_mod.MAX_VERIFY_N})'),
], ids=['kk-r', 'gauss-a', 'deform-r', 'order-q', 'verify-max-r',
        'verify-max-n'])  # fixed ids: the budgets in the messages may change
def test_a_long_integer_option_is_refused_unread(argv, option, budget, capsys):
    # int() would refuse 5000 digits and argparse echo them all (5161 bytes)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 300
    assert err.splitlines()[-1] == (
        f'wahlorder {argv[0]}: error: argument {option}: '
        f'{len(argv[argv.index(option) + 1])} characters, over the size '
        f'budget of {budget}')


def test_a_short_integer_option_reads_as_before(capsys):
    # a space and an underscore are read by int(); a short value over the
    # budget gets the message of the budget, and a non-integer argparse's
    assert main(['kk', '--r', ' 13', '--a', '1_0']) == 0
    assert capsys.readouterr().out.startswith('R_{13,10}  (b = 4;')
    assert main(['kk', '--r', '9' * 20, '--a', '1']) == 2
    assert capsys.readouterr().err == (
        f'error: r = {"9" * 20} is over the size budget of kk '
        f'(r <= {cli_mod.MAX_KK_R})\n')
    with pytest.raises(SystemExit):
        main(['order', '--n', '2.0', '--q', '1'])
    assert capsys.readouterr().err.splitlines()[-1] == (
        "wahlorder order: error: argument --n: invalid int value: '2.0'")


@pytest.mark.parametrize('argv,option', [
    (['kk', '--r', '\u0669', '--a', '\u0662'], '--r'),
    (['verify', '--suite', 'kk', '--max-r', '\u0661\u0666'], '--max-r'),
], ids=['kk-r', 'verify-max-r'])
def test_a_non_ascii_integer_option_is_refused(argv, option, capsys):
    # int() reads any Unicode decimal digit; an option reads ASCII only
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    value = argv[argv.index(option) + 1]
    assert capsys.readouterr().err.splitlines()[-1] == (
        f'wahlorder {argv[0]}: error: argument {option}: '
        f'invalid int value: {value!r}')


@pytest.mark.parametrize('argv,message', [
    (['deform', '--r', '2', '--a', '1', '--spec', '/nonexistent'],
     '--spec FILE is read only with --table'),
    (['deform', '--r', '2', '--a', '1', '--ideal', '--spec', '/nonexistent'],
     '--spec FILE is read only with --table'),
    (['deform', '--r', '2', '--a', '1', '--table'],
     '--table requires --spec FILE'),
    (['order', '--n', '2', '--q', '1', '--fiber', 'zero', '--at', '5'],
     '--at TAU is not read with --fiber zero'),
    (['order', '--n', '2', '--q', '1', '--at', '5', '--fiber', 'infinity'],
     '--at TAU is not read with --fiber infinity'),
    (['--format', 'svg', 'gauss', '--r', '5', '--a', '2'],
     '--format svg is drawn only by kk, not gauss'),
    (['deform', '--r', '4', '--a', '1', '--format', 'svg'],
     '--format svg is drawn only by kk, not deform'),
    (['order', '--n', '2', '--q', '1', '--format', 'svg'],
     '--format svg is drawn only by kk, not order'),
    (['--format', 'svg', 'verify', '--suite', 'kk'],
     '--format svg is drawn only by kk, not verify'),
], ids=['spec-without-table', 'spec-with-ideal', 'table-without-spec',
        'at-with-fiber-zero', 'at-with-fiber-infinity', 'svg-gauss',
        'svg-deform', 'svg-order', 'svg-verify'])
def test_an_option_the_call_would_not_read_exits_2(argv, message, monkeypatch,
                                                     capsys):
    def must_not_build(*args, **kw):
        raise AssertionError('built for a refused call')

    for module, name in ((kkalg_mod, 'gauss_word'),
                         (deform_mod, 'diff_matrix'),
                         (order_mod, 'build_order'),
                         (verify_mod, 'run_suite')):
        monkeypatch.setattr(module, name, must_not_build)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == f'error: {message}\n'


def test_readme_calls_are_within_the_size_budget():
    readme = open(Path(__file__).resolve().parent.parent / 'README.md').read()
    calls = [line.split('#')[0].split()[1:] for line in readme.splitlines()
             if line.startswith('wahlorder ')]
    assert len(calls) >= 11
    budgets = {'kk': [('--r', cli_mod.MAX_KK_R)],
               'gauss': [('--r', cli_mod.MAX_GAUSS_R)],
               'deform': [('--r', cli_mod.MAX_DEFORM_R)],
               'order': [('--n', cli_mod.MAX_ORDER_N)],
               'verify': [('--max-r', cli_mod.MAX_VERIFY_R),
                          ('--max-n', cli_mod.MAX_VERIFY_N)]}
    assert any('--max-r' in argv for argv in calls)
    for argv in calls:
        for flag, budget in budgets[argv[0]]:
            if flag in argv:
                assert 2 <= int(argv[argv.index(flag) + 1]) <= budget, argv


def test_unprinted_results_are_not_built(monkeypatch, capsys, tmp_path):
    # kk --format svg never reads the multiplication table, and
    # deform --table never prints the universal differential matrix (its
    # flatness check builds the matrix of the inserted spec)
    def must_not_build(*args, **kw):
        raise AssertionError('built a result that is never printed')

    real_diff_matrix = deform_mod.diff_matrix

    def spec_diff_matrix(params, ops=None):
        if ops is None:
            must_not_build()
        return real_diff_matrix(params, ops)

    monkeypatch.setattr(kkalg_mod, 'kk_table', must_not_build)
    monkeypatch.setattr(deform_mod, 'diff_matrix', spec_diff_matrix)
    assert main(['kk', '--r', '7', '--a', '6', '--format', 'svg']) == 0
    ET.fromstring(capsys.readouterr().out)
    spec = tmp_path / 'free.spec'
    spec.write_text('t_1 = t_1\n')
    assert main(['deform', '--r', '2', '--a', '1', '--table',
                 '--spec', str(spec)]) == 0
    assert 'w_1 w_1 = (s) w_0 + (-t_1) w_1' in capsys.readouterr().out


# sha256 of stdout, recorded before the A-infinity table was integer-coded
_DEFORM_DIGESTS = [
    (['deform', '--r', '15', '--a', '4', '--ideal'],
     '8392c4685ef74ff6e8dfdd079609aed3be2c7763207eb80daab4b2f2cf116a4d'),
    (['--format', 'json', 'deform', '--r', '15', '--a', '4', '--ideal'],
     'd3ae2e68d05fb251469107897e6bb92f7d77e10ceaf4bdb244d9dee4ae8333a1'),
    (['deform', '--r', '16', '--a', '3', '--ideal'],
     'cc0098bc7148f1b04cba8780aea73f88f95b7ad96174449119161971ba0d1ea5'),
    (['--format', 'json', 'deform', '--r', '16', '--a', '3', '--ideal'],
     '8d8f33d991e1e76db148ea0495bcdacbf23aa14719f4d2b24e1568407f2e297c'),
    (['deform', '--r', '18', '--a', '5', '--ideal'],
     '4c9028211028b0d922f8b30dab91249bbb64d84be34a9c0922317a00e740eedf'),
    (['--format', 'json', 'deform', '--r', '18', '--a', '5', '--ideal'],
     'eafa69a1805388e9661211d468102481bebd14eb7989c3315709b1813b4c4eb2'),
    (['deform', '--r', '4', '--a', '1', '--table', '--spec', 'second.spec'],
     '3677257db3c3a0c3ac1cefdb7c83f382ab2e604d47184d315a6484e28e3e5385'),
    # sha256 of stdout + stderr, recorded before the values of a spec were
    # inserted directly: a component with free t's, zero slots and an s
    # image, the Wahl (4, 1) cochain, and a non-flat spec, which writes
    # "error: cochain is not flat; first surviving entry (1, 14):
    # 2 t_1 t_7^2" to stderr and exits 1
    (['deform', '--r', '15', '--a', '4', '--table', '--spec', 'i1.spec'],
     '70b7162711e1fed68f0107fe2104d6a4810b3b6cdc1b75067fd8b1042a065b32'),
    (['--format', 'json', 'deform', '--r', '15', '--a', '4', '--table',
      '--spec', 'i1.spec'],
     '116bb7516c106bafb1d8d0420103328e0a6fb99bcf5239214f279d3620fc662a'),
    (['deform', '--r', '16', '--a', '3', '--table', '--spec', 'wahl41.spec'],
     '9437f3fb4570743485bb2ebf193b7e4abfae690a4abd033e19e5a070c2da794e'),
    (['--format', 'json', 'deform', '--r', '16', '--a', '3', '--table',
      '--spec', 'wahl41.spec'],
     'ebc4acb06bbaf75ddd0d77d1421cba2b933fd503f8a73c5eca30aded2eac3a2c'),
    (['deform', '--r', '15', '--a', '4', '--table', '--spec', 'bad.spec'],
     'a4fb073054bd880ce8c141b392c4ee7a49134292932c65189c9d5586e728c69d'),
]
_SPECS = {
    'second.spec': 't_2 = t_2\ns = -t_2^2\n',
    # the I1 component of 1/15(1,4)
    'i1.spec': ('t_1 = t_1\nt_2 = 0\nt_7 = t_7\nt_8 = t_1 t_7\nt_14 = t_7^2\n'
                's = -t_1 t_7^2\n'),
    'wahl41.spec': 't_4 = t\nt_8 = t^2\nt_12 = t^3\ns = -t^4\n',
    # I1 with the sign of s flipped
    'bad.spec': ('t_1 = t_1\nt_7 = t_7\nt_8 = t_1 t_7\nt_14 = t_7^2\n'
                 's = t_1 t_7^2\n'),
}


@pytest.mark.parametrize('argv,digest', _DEFORM_DIGESTS)
def test_deform_output_bytes(argv, digest, capsys, tmp_path, monkeypatch):
    for name, text in _SPECS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == (1 if captured.err else 0)  # 1 only for the non-flat spec
    out = captured.out + captured.err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout, recorded before the order layer moved to signed-monomial
# matrices; verify's elapsed times are masked as (-s)
_ORDER_DIGESTS = [
    (['--format', 'paper', 'order', '--n', '5', '--q', '2'],
     'd5b0ac83a8ccd99352f737a6fb170a14fac0a5fb3d1ce05ff184b03dc6314b22'),
    (['--format', 'json', 'order', '--n', '5', '--q', '2'],
     '4d08956df431bd37bbf3966a5132da4d51a7d9690fa74a6f9bc5586eac58153f'),
    (['order', '--n', '4', '--q', '3', '--fiber', 'zero'],
     '9e9953b3a2d7ae8f762c270e1a34d0e7f434bb6818003900f7a67835f3399c79'),
    (['order', '--n', '3', '--q', '2', '--fiber', 'generic', '--at', '1/2'],
     '4c101c234ad0ea9a793620642cf572caaf195791e8bbc2dbfe3d46fc1be8d157'),
    (['order', '--n', '6', '--q', '5', '--fiber', 'infinity'],
     '9ba667ba84af8c86dd22811506979dcf61ab9138ca90578a90508aef1f94d5fc'),
    (['verify', '--suite', 'cross', '--max-n', '4'],
     '30c1c227deea59e7f11cf330fc79b3145ea33ba29bde86c884bf51acb734da89'),
    # recorded later, while run_suite still took its bounds as **kwargs
    (['verify', '--suite', 'deform', '--max-r', '7', '--max-n', '3'],
     '89e9e8a410d3023a79b52d51ff8aeb1e966c6dd703e54192239d6dcd9b775e43'),
    (['verify', '--suite', 'all', '--max-r', '10', '--max-n', '4'],
     '924d78e32e16f248803bb3998fdc2f747ef05d0fa8735fa514cd0e17bc4b45fd'),
]


@pytest.mark.parametrize('argv,digest', _ORDER_DIGESTS)
def test_order_output_bytes(argv, digest, capsys):
    assert main(argv) == 0
    out = re.sub(r'\(\d+\.\d+s\)', '(-s)', capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `verify --suite order --max-n 5` with the elapsed times masked,
# recorded before associator_violation coded Poly coefficients as integers
_VERIFY_ORDER_DIGEST = (
    'da6978d4e78fcbcbb2d06d247394f55f7342ec1a8e288ed09735d598efb4fadf')


def test_verify_order_output_bytes(capsys):
    assert main(['verify', '--suite', 'order', '--max-n', '5']) == 0
    out = re.sub(r'\(\d+\.\d+s\)', '(-s)', capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_ORDER_DIGEST


# sha256 of stdout with the elapsed times masked, as (-s) in text and as X
# in JSON, recorded before the hidden A-infinity operations were read off
# gauss_word and before these suites' unit, commutativity and Wahl-parameter
# checks called the functions that define them
_VERIFY_KK_DEFORM_DIGESTS = [
    (['verify', '--suite', 'kk', '--max-r', '16'],
     '39324d969a8f2d3275a4e1ce5c75770530818c7aff6b13c7d18181042cdaae1d',
     '2e43e07b26d4785b7c8836494ca85a916b8a03454348fbb469c29fc8b2627ced'),
    (['verify', '--suite', 'deform'],
     '45353fd52442abdba2f7feb6b19b834bf24305a3c35c20b891e2bf440b18e755',
     'f4d9c7ce7a24e0bb4d8e581f4ea176cb7cbfcda26ab631f90f183d3cc23a241c'),
]


@pytest.mark.parametrize('argv,digest,json_digest', _VERIFY_KK_DEFORM_DIGESTS)
def test_verify_kk_and_deform_output_bytes(argv, digest, json_digest, capsys,
                                           monkeypatch):
    # both formats render one run of the suite
    real_run_suite, reports = verify_mod.run_suite, []

    def run_once(*args):
        if not reports:
            reports.append(real_run_suite(*args))
        return reports[0]

    monkeypatch.setattr(verify_mod, 'run_suite', run_once)
    for prefix, want in (([], digest), (['--format', 'json'], json_digest)):
        assert main([*prefix, *argv]) == 0
        out = re.sub(r'\(\d+\.\d+s\)', '(-s)', capsys.readouterr().out)
        out = re.sub(r'"elapsed": [0-9.e-]+', '"elapsed": X', out)
        assert hashlib.sha256(out.encode()).hexdigest() == want
