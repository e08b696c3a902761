"""The line census (``benchmarks/census.py``) on a planted module.

The census itself is a twenty-minute re-anchor run; this checks its
tracer and classifier in-process so neither can rot between runs.
"""

from __future__ import annotations

import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PLANT = '''\
from dataclasses import dataclass


@dataclass(frozen=True)
class Settings:
    size: int = 8
    spare: int = 0


def used(x, knob=3, *, unset=None):
    return x + knob


def never():
    return 1


def tests_only(flag=False):
    return flag
'''


def load(monkeypatch, name: str, path: str):
    """Import ``path`` as module ``name`` (registered, as an import would:
    a dataclass finds its module's globals through ``sys.modules``)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_census_classifies_a_planted_module(tmp_path, monkeypatch):
    census = load(monkeypatch, "census", os.path.join(ROOT, "benchmarks", "census.py"))
    root = tmp_path / "plant"
    root.mkdir()
    (root / "mod.py").write_text(PLANT)

    with census.Tracer(str(root)) as production:
        plant = load(monkeypatch, "census_plant", str(root / "mod.py"))
        plant.used(1)
        plant.Settings(size=16)
    with census.Tracer(str(root)) as tier1:
        plant.used(1, knob=4)
        plant.tests_only(flag=True)
        plant.Settings(spare=1)
    doc = census.classify(str(root), [production.result()], [tier1.result()])

    assert doc["never_entered_by_production"] == {
        "plant/mod.py:14 never": "nothing",
        "plant/mod.py:18 tests_only": "tier1",
    }
    assert doc["default_only_in_production"] == {
        "plant/mod.py:used(knob)": "tier1",
        "plant/mod.py:used(unset)": "nothing",
        "plant/mod.py:Settings.__init__(spare)": "tier1",
    }
    counts = doc["files"]["plant/mod.py"]
    assert counts == {"production": sum(counts.values()) - 2, "tier1": 1, "nothing": 1}
    assert doc["lines"] == counts
    assert doc["functions"] == {"tier1": 1, "nothing": 1}


GENERATED = '''\
def never():
    return 0


def make():
    scope = {}
    exec(compile("def gen(x, knob=1):\\n    return x + knob\\n", __file__ + ":<Gen>", "exec"), scope)
    return scope["gen"]
'''


def test_census_keeps_generated_code_apart(tmp_path, monkeypatch):
    """Code compiled under a suffixed filename (``mod.py:<Gen>``, as the
    record and row codecs are) is no line of ``mod.py``: the generated
    ``return`` on its line 2 does not mark ``never``'s line 2 as run, and
    the generated function's parameters are keyed by that name."""
    census = load(monkeypatch, "census", os.path.join(ROOT, "benchmarks", "census.py"))
    root = tmp_path / "plant"
    root.mkdir()
    (root / "mod.py").write_text(GENERATED)

    with census.Tracer(str(root)) as production:
        plant = load(monkeypatch, "census_generated", str(root / "mod.py"))
        assert plant.make()(1) == 2
    doc = census.classify(str(root), [production.result()], [])

    assert sorted(production.result()["lines"][str(root / "mod.py")]) == [1, 5, 6, 7, 8]
    assert doc["files"]["plant/mod.py"] == {"production": 5, "tier1": 0, "nothing": 1}
    assert doc["never_entered_by_production"] == {"plant/mod.py:1 never": "nothing"}
    assert doc["default_only_in_production"] == {"plant/mod.py:<Gen>:gen(knob)": "nothing"}


TWO_LABELS = '''\
def make(label):
    scope = {}
    # Distinct bodies, as each record class's fields differ (equal code
    # objects would share one key: code equality ignores the filename).
    source = "def gen(x, knob=1, spare=0):\\n    tag = %r\\n    return x + knob + spare\\n" % label
    exec(compile(source, __file__ + ":<" + label + ">", "exec"), scope)
    return scope["gen"]
'''


def test_census_counts_generated_copies_once(tmp_path, monkeypatch):
    """One generated function compiled per label (``mod.py:<A>``,
    ``mod.py:<B>``, as the record codecs compile one ``__init__`` per
    class) is listed per label but counted once, as ``mod.py``'s: a
    parameter production sets under any label is not default-only."""
    census = load(monkeypatch, "census", os.path.join(ROOT, "benchmarks", "census.py"))
    root = tmp_path / "plant"
    root.mkdir()
    (root / "mod.py").write_text(TWO_LABELS)

    with census.Tracer(str(root)) as production:
        plant = load(monkeypatch, "census_labels", str(root / "mod.py"))
        gen_a, gen_b = plant.make("A"), plant.make("B")
        assert gen_a(1, knob=2) == 3 and gen_b(1) == 2
    with census.Tracer(str(root)) as tier1:
        assert gen_b(1, spare=1) == 3
    doc = census.classify(str(root), [production.result()], [tier1.result()])

    assert doc["default_only_in_production"] == {
        "plant/mod.py:<A>:gen(spare)": "nothing",
        "plant/mod.py:<B>:gen(knob)": "nothing",
        "plant/mod.py:<B>:gen(spare)": "tier1",
    }
    # knob is set under <A>; spare is set by tier-1 under <B>.
    assert doc["default_only"] == {"tier1": 1, "nothing": 0}
