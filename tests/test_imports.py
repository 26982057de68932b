"""The package loads lazily: its exports resolve on first use, and each
command imports only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iotsla

from support import FIXTURES

SRC = Path(iotsla.__file__).resolve().parents[1]

# The public names, by defining module.
EXPORTS = {
    "constraints": "COMPARATORS KNOWN_UNITS SATISFIED UNIT_FAMILIES UNSPECIFIED VIOLATED "
                   "TypedValue check_constraint_against_value convert normalize_unit "
                   "units_convertible",
    "errors": "DomainError DuplicateIdError EmptyWindowError IncompatibleUnitsError "
              "ParseError SchemaViolationError SlaError TelemetryFormatError "
              "TypeMismatchError UnitMismatchError UnknownActivityError "
              "VocabularyIntegrityError",
    "interchange": "from_interchange to_interchange",
    "matcher": "MatchReport ProviderOffer load_offer rank_offers satisfies_capability "
               "score_offer",
    "model": "ACTIVITY_KINDS APP_TARGET PARTY_ROLES RESOURCE_KINDS SERVICE_KINDS ConfigParam "
             "InfraResourceSpec MetricConstraint Party ServiceSpec SlaDocument Slo SourceSpan "
             "WorkflowActivity build_document concept_of_target resolve services_for_activity",
    "monitor": "EvaluationWindow MonitorReport TelemetryRecord ViolationEvent "
               "availability_ratio data_completeness end_to_end_response evaluate_window "
               "miss_ratio monitor_document parse_telemetry",
    "parser": "parse serialize",
    "validator": "Diagnostic compatibility format_diagnostic validate",
    "vocabulary": "APPLICATION_CONCEPT TABLE_CONCEPTS VALID_CONCEPTS Catalog VocabularyEntry "
                  "application_slo_terms load_builtin_catalog",
}
NAMES = {name: module for module, names in EXPORTS.items() for name in names.split()}


# --- the lazy export surface ------------------------------------------------------

def test_all_lists_the_public_names():
    assert len(NAMES) == 73
    assert sorted(iotsla.__all__) == sorted(NAMES)


@pytest.mark.parametrize("name", sorted(NAMES))
def test_each_name_is_the_defining_modules_object(name):
    module = importlib.import_module(f"iotsla.{NAMES[name]}")
    assert getattr(iotsla, name) is getattr(module, name)
    # resolved on each use, never copied into the package
    assert name not in vars(iotsla)


def test_dir_and_star_import_cover_all():
    assert set(iotsla.__all__) <= set(dir(iotsla))
    namespace = {}
    exec("from iotsla import *", namespace)
    for name in iotsla.__all__:
        assert namespace[name] is getattr(iotsla, name)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'iotsla' has no attribute 'x'$"):
        iotsla.x
    with pytest.raises(ImportError):
        exec("from iotsla import x", {})


def test_a_patched_function_is_what_the_package_returns(monkeypatch):
    def stub(text):
        raise AssertionError("stub")

    original = iotsla.parser.parse
    with monkeypatch.context() as patch:
        patch.setattr(iotsla.parser, "parse", stub)
        assert iotsla.parse is stub
    assert iotsla.parse is iotsla.parser.parse is original


# --- what each process imports ------------------------------------------------------

# Runs the command through cli.main with its output swallowed, then prints
# the iotsla modules loaded.
_RUN_COMMAND = """
import contextlib, io, json, sys
from iotsla import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    cli.main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "iotsla")))
"""

_LOADED = """
import json, sys
{}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "iotsla")))
"""


def _loaded(code: str, *args: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=SRC.parent,
                          capture_output=True, text=True, timeout=60, check=True)
    return sorted(name.removeprefix("iotsla.") for name in json.loads(proc.stdout))


def _fx(name: str) -> str:
    return str(FIXTURES / name)


# Modules by their names in sys.modules less "iotsla."; "iotsla" is the
# package.  No list holds both "matcher" and "monitor" or holds
# "interchange", and none for the catalog alone holds "parser" or "model".
_FMT = ["cli", "constraints", "errors", "iotsla", "model", "parser"]
_CATALOG = ["_catalog_data", "cli", "constraints", "errors", "iotsla", "jsonio", "vocabulary"]
_VALIDATE = ["_catalog_data", "cli", "constraints", "errors", "iotsla", "jsonio", "model",
             "parser", "validator", "vocabulary"]
# An argument the test replaces with the path of an overlay it writes.
_OVERLAY = "OVERLAY"
_COMMANDS = {
    "fmt --check": (["fmt", "--check", _fx("rhms.sla")], _FMT),
    "fmt --check, would reformat": (["fmt", "--check", _fx("messy.sla")], _FMT),
    "vocab export": (["vocab", "export"], _CATALOG),
    "vocab export --catalog": (["vocab", "export", "--catalog", _OVERLAY], _CATALOG),
    "vocab show": (["vocab", "show", "latency", "ingestion"], _CATALOG),
    "vocab list --json": (["vocab", "list", "--json"], _CATALOG),
    "validate": (["validate", _fx("rhms.sla")], _VALIDATE),
    "validate --json": (["validate", _fx("rhms.sla"), "--json"], _VALIDATE),
    "match": (["match", _fx("procure.sla"), _fx("alpha.offer.json"), _fx("beta.offer.json"),
               "--weights", _fx("weights.json"), "--json"],
              _VALIDATE + ["matcher"]),
    "monitor": (["monitor", _fx("rhms.sla"), _fx("spike.telemetry")], _VALIDATE + ["monitor"]),
    "monitor --json": (["monitor", _fx("rhms.sla"), _fx("spike.telemetry"), "--json"],
                       _VALIDATE + ["monitor"]),
}


def test_import_iotsla_loads_only_the_package():
    assert _loaded(_LOADED.format("import iotsla")) == ["iotsla"]


@pytest.mark.parametrize("use", ["iotsla.parse", "iotsla.parser.parse"])
def test_a_name_loads_only_its_module(use):
    assert _loaded(_LOADED.format(f"import iotsla; {use}")) == [
        "constraints", "errors", "iotsla", "model", "parser"]


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_each_command_imports_only_what_it_runs(command, tmp_path):
    args, expected = _COMMANDS[command]
    if _OVERLAY in args:  # one entry, replaced, with a non-ASCII description
        entry = dict(iotsla.load_builtin_catalog().lookup("latency", "ingestion").to_dict(),
                     description="Latência de ingestão", aliases=["lag"])
        overlay = tmp_path / "overlay.json"
        overlay.write_text(json.dumps([entry]), encoding="utf-8")
        args = [str(overlay) if arg == _OVERLAY else arg for arg in args]
    assert _loaded(_RUN_COMMAND, *args) == sorted(expected)
