"""Each entry point loads only the layers its work runs: `import wahlorder`
resolves its names on first use, and a CLI command imports its layer when it
runs.  No path loads `dataclasses` or `inspect`, and `json` and `fractions`
load only with the calls that read them.  Each footprint is read from a
fresh interpreter, so an eager import that comes back shows here."""

import importlib
import subprocess
import sys

import pytest

import wahlorder

_CLI = {'cli', 'render', 'resarith', 'polyring', 'kkalg'}
# standard-library modules that a call loads only if it reads them
_WATCHED = {'dataclasses', 'inspect', 'json', 'fractions', 'decimal'}
_FRACTIONS = {'fractions', 'decimal'}  # fractions imports decimal


def _loaded(code: str) -> set:
    """The wahlorder submodules, by their names in the package, and the
    watched standard-library modules loaded by a fresh interpreter after
    `code`."""
    report = "import sys; print(*sys.modules)"
    proc = subprocess.run([sys.executable, '-c', f'{code}\n{report}'],
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.splitlines()[-1].split())
    return ({m.split('.', 1)[1] for m in loaded if m.startswith('wahlorder.')}
            | loaded & _WATCHED)


def _main(*argv) -> str:
    return f'from wahlorder.cli import main; main({list(argv)!r})'


def test_import_wahlorder_loads_no_layer():
    assert _loaded('import wahlorder') == set()


@pytest.mark.parametrize('argv,extra', [
    (['kk', '--r', '9', '--a', '2'], set()),
    (['--format', 'svg', 'kk', '--r', '7', '--a', '6'], set()),
    (['gauss', '--r', '16', '--a', '3'], set()),
    (['--format', 'json', 'gauss', '--r', '16', '--a', '3'], {'json'}),
    (['deform', '--r', '15', '--a', '4', '--ideal'], {'ainf', 'deform'}),
    (['--format', 'paper', 'order', '--n', '3', '--q', '2'], {'order'}),
    (['--format', 'json', 'order', '--n', '3', '--q', '2'], {'order', 'json'}),
    (['order', '--n', '3', '--q', '1', '--fiber', 'zero'], {'order'}),
    (['order', '--n', '2', '--q', '1', '--fiber', 'generic'], {'order'}),
    (['order', '--n', '2', '--q', '1', '--fiber', 'infinity'], {'order'}),
    (['--format', 'json', 'kk', '--r', '9', '--a', '2'], {'json'}),
    (['order', '--n', '2', '--q', '1', '--at', '1/2'], {'order'} | _FRACTIONS),
    (['verify', '--suite', 'kk', '--max-r', '4'], {'verify'}),
    (['verify', '--suite', 'order', '--max-n', '2'],
     {'verify', 'order', 'goldens'}),
    (['verify', '--suite', 'cross', '--max-n', '2'],
     {'verify', 'order', 'ainf', 'deform'}),
    (['verify', '--suite', 'deform', '--max-r', '2', '--max-n', '2'],
     {'verify', 'order', 'ainf', 'deform'}),
])
def test_a_command_loads_only_its_layers(argv, extra):
    assert _loaded(_main(*argv)) == _CLI | extra


def test_the_names_are_the_objects_of_their_modules():
    assert sorted(dir(wahlorder)) == sorted(wahlorder.__all__)
    for module, names in wahlorder._EXPORTS.items():
        defining = importlib.import_module(f'wahlorder.{module}')
        for name in names:
            value = getattr(wahlorder, name)
            assert value is getattr(defining, name), name
            # the table names the defining module, not one that re-imports
            # the name (the constants S and T carry no __module__)
            assert getattr(value, '__module__',
                           defining.__name__) == defining.__name__, name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match='no_such_name'):
        wahlorder.no_such_name
    assert not hasattr(wahlorder, 'no_such_name')
