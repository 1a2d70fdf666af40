"""The committed `fixtures/` tree is the fixtures' source: its directories,
manifest and input documents must agree, and its inputs must be canonical."""

import json
import shutil

import pytest

from batchopt import fixtures as fx
from batchopt.model import parse_model, validate_model

MANIFEST = json.loads((fx.FIXTURES_ROOT / fx.MANIFEST_NAME).read_text())


def test_directories_equal_the_manifest_keys():
    directories = {p.name for p in fx.FIXTURES_ROOT.iterdir() if p.is_dir()}
    assert directories == set(MANIFEST)


def test_every_pattern_names_a_manifest_fixture():
    assert set(fx.SCENARIO_BUILDERS.values()) <= set(MANIFEST)


def test_all_fixtures_follow_the_manifest():
    assert [f.name for f in fx.all_fixtures()] == list(MANIFEST)


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_every_model_parses_and_validates(name):
    doc = json.loads((fx.FIXTURES_ROOT / name / "model.json").read_text())
    assert validate_model(parse_model(doc)) == []


def test_each_call_returns_fresh_documents():
    first = fx.get_fixture("two-batch")
    first.model_doc["arrival"]["totalCases"] = 99
    assert fx.get_fixture("two-batch").model_doc["arrival"]["totalCases"] == 4


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A copy of the committed tree that the loader reads instead."""
    root = tmp_path / "fixtures"
    shutil.copytree(fx.FIXTURES_ROOT, root)
    monkeypatch.setattr(fx, "FIXTURES_ROOT", root)
    return root


def _reordered_model(path):
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(dict(reversed(doc.items())), indent=2) + "\n")


def _policies_without_scale_factor(path):
    doc = json.loads(path.read_text())
    del doc["policies"][0]["cost"]["processingScaleFactor"]  # defaults to 1.0
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize(
    "edit, name",
    [(_reordered_model, "model.json"), (_policies_without_scale_factor, "policies.json")],
    ids=["model-key-order", "policies-default-omitted"],
)
def test_a_non_canonical_input_differs_until_written(tree, edit, name):
    committed = (tree / "two-batch" / name).read_text()
    edit(tree / "two-batch" / name)
    report = fx.regenerate_goldens(tree, check=True)
    assert [r for r in report if r[2] != "unchanged"] == [("two-batch", name, "differs")]

    fx.regenerate_goldens(tree)
    assert (tree / "two-batch" / name).read_text() == committed
    assert all(r[2] == "unchanged" for r in fx.regenerate_goldens(tree, check=True))


def test_regenerating_one_fixture_keeps_the_other_manifest_entries(tree):
    manifest = (tree / fx.MANIFEST_NAME).read_text()
    report = fx.regenerate_goldens(tree, fixtures=(fx.get_fixture("two-batch"),))
    assert all(r[2] == "unchanged" for r in report)
    assert (tree / fx.MANIFEST_NAME).read_text() == manifest
