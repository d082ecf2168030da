import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import jsonschema

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


def test_main_entry_in_process(capsys):
    rc = main(['gauss', '--r', '5', '--a', '1'])
    assert rc == 0
    out = capsys.readouterr().out
    assert 'Gauss word: 4, 3, 2, 1, 4, 3, 2, 1' in out


def test_arithmetic_error_exits_1(monkeypatch, capsys):
    import wahlorder.order as order_mod

    def not_closed(basis, targets):
        raise ArithmeticError('product (1, 1): coordinate 2 is not in Z[t]')

    monkeypatch.setattr(order_mod, 'solve_in_basis', not_closed)
    rc = main(['order', '--n', '2', '--q', '1', '--fiber', 'zero'])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ''
    assert captured.err == 'error: product (1, 1): coordinate 2 is not in Z[t]\n'
