"""A line census of ``src/repro``: what production runs, what only tier-1 runs, what nothing runs.

    python benchmarks/census.py

Each entry point runs in its own subprocess under a ``sys.settrace`` /
``threading.settrace`` tracer: perflab's five workloads in-process at
``scale="tiny"``, every bench in one ``pytest --smoke`` run (the five with
a small scale at it, the twelve figures in full), the ``examples/``, every
mode of the ``obs``, ``chaos``, ``loginspect`` and ``reprolint`` CLIs, and
tier-1 last. The tracer records the lines it sees
and, at each call, which defaulted parameters got a non-default value.
``bench_results/census.json`` gets per-file line counts, every function
production never enters (``tier1`` when tier-1 does, else ``nothing``), and
every defaulted parameter of a production function that production only
passes at its default (``tier1`` when tier-1 sets it, else ``nothing``).
Code compiled under a suffixed filename (``records.py:<InsertRowRecord>``)
is listed under that name, but counted as its module's: the codecs'
per-class copies of one generated function count once.
About 20 minutes on two cores; ``docs/analysis.md`` keeps the ledger.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src" / "repro")
CLIS = ("obs", "obs --json --trace", "obs --trace --like io.*", "obs --watch --history --alerts",
        "obs --history --json", "chaos", "chaos --json", "reprolint src/ tests/ --gate")
LOGINSPECT = ("", "--chains", "--lint-log", "--metrics", "--db shop --limit 5")


class Tracer:
    """Lines run, functions entered and defaulted parameters set off their default, under ``root``."""

    def __init__(self, root: str) -> None:
        self.root, self.lines, self.entered, self.params = root + os.sep, {}, set(), {}
        self._pending, self._lines = {}, {}

    def __enter__(self) -> Tracer:
        self._saved = sys.gettrace(), threading.gettrace()
        threading.settrace(self)
        sys.settrace(self)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])

    def __call__(self, frame, event, arg):
        code = frame.f_code  # a dataclass __init__ is "<string>" code run in its module's globals
        path = frame.f_globals.get("__file__") or "" if code.co_filename == "<string>" else code.co_filename
        if event != "call" or not path.startswith(self.root):
            return None
        if code not in self._pending:
            self._pending[code] = self._defaults(frame, code, path)
        for key, default in list(self._pending[code].items()):
            value = frame.f_locals.get(key[2], default)
            if value is not default and value != default:
                self.params[key] = True
                del self._pending[code][key]
        if code.co_filename != path:
            return None
        self.entered.add(code)
        seen = self.lines.setdefault(path, set())
        if code not in self._lines:
            self._lines[code] = _lines(code)
        if self._lines[code] <= seen:
            return None  # every line already seen: spare the line events

        def local(frame, event, arg):
            seen.add(frame.f_lineno)
            return local
        return local

    def _defaults(self, frame, code, path: str) -> dict:
        """``{(path, qualname, param): default}`` of the function running ``code``, found by its qualname."""
        obj = frame.f_globals
        for part in code.co_qualname.split("."):
            obj = (obj if isinstance(obj, dict) else vars(obj) if isinstance(obj, type) else {}).get(part)
        if code.co_filename == "<string>":  # a frozen dataclass's fields are settings, a mutable one's state
            cls = type(frame.f_locals.get("self"))
            obj = cls.__init__ if getattr(cls.__dict__.get("__dataclass_params__"), "frozen", False) else None
        wrapped = (obj, *(getattr(obj, key, None) for key in ("__func__", "__wrapped__", "fget", "fset")))
        fn = next((f for f in wrapped if getattr(f, "__code__", None) is code), None)
        if fn is None:
            return {}
        names = code.co_varnames[: code.co_argcount]
        defaults = dict(zip(names[len(names) - len(fn.__defaults__ or ()):], fn.__defaults__ or (), strict=True))
        found = {(path, fn.__qualname__, name): value for name, value in {**defaults, **(fn.__kwdefaults__ or {})}.items()}
        self.params.update(dict.fromkeys(found, False))
        return found

    def result(self) -> dict:
        return {"lines": {path: sorted(lines) for path, lines in self.lines.items()},
                "entered": sorted((c.co_filename, c.co_qualname, c.co_firstlineno) for c in self.entered),
                "params": sorted([*key, value] for key, value in self.params.items())}


def _lines(code) -> set:
    return {line for _, _, line in code.co_lines() if line} - {code.co_firstlineno}


def _codes(path: str):
    stack = [compile(Path(path).read_text(), path, "exec")]
    while stack:
        yield (code := stack.pop())
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))


def _fold(key: tuple) -> tuple:
    """A parameter key of generated code (``mod.py:<Label>``) as ``mod.py``'s."""
    return (re.sub(r":<[^<>]*>$", "", key[0]), *key[1:])


def classify(root: str, production: list[dict], tier1: list[dict]) -> dict:
    """The census of every module under ``root``, from ``Tracer.result()`` documents."""
    runs = [{"lines": {(path, line) for doc in docs for path, lines in doc["lines"].items() for line in lines},
             "entered": {tuple(item) for doc in docs for item in doc["entered"]},
             "set": {tuple(item[:3]) for doc in docs for item in doc["params"] if item[3]}} for docs in (production, tier1)]
    known = {tuple(item[:3]) for doc in production for item in doc["params"]}
    base, files, functions = len(os.path.dirname(root)) + 1, {}, {}
    for path in sorted(glob.glob(os.path.join(root, "**", "*.py"), recursive=True)):
        codes = list(_codes(path))
        lines = {(path, line) for code in codes for line in _lines(code) | {code.co_firstlineno}}
        prod, t1 = lines & runs[0]["lines"], lines & runs[1]["lines"] - runs[0]["lines"]
        files[path[base:]] = {"production": len(prod), "tier1": len(t1), "nothing": len(lines) - len(prod) - len(t1)}
        for code in codes:  # functions only (CO_NEWLOCALS): no module or class bodies, no lambdas or comprehensions
            key = (path, code.co_qualname, code.co_firstlineno)
            if code.co_flags & 2 and code.co_name[0] != "<" and key not in runs[0]["entered"]:
                functions[f"{path[base:]}:{key[2]} {key[1]}"] = "tier1" if key in runs[1]["entered"] else "nothing"
    params = {f"{key[0][base:]}:{key[1]}({key[2]})": "tier1" if key in runs[1]["set"] else "nothing"
              for key in known - runs[0]["set"]}
    folded_set = [{_fold(key) for key in run["set"]} for run in runs]
    folded = {_fold(key): "tier1" if _fold(key) in folded_set[1] else "nothing"
              for key in known if _fold(key) not in folded_set[0]}
    count = {kind: {cls: list(found.values()).count(cls) for cls in ("tier1", "nothing")}
             for kind, found in (("functions", functions), ("default_only", folded))}
    return {"lines": {cls: sum(c[cls] for c in files.values()) for cls in ("production", "tier1", "nothing")},
            **count, "files": files, "never_entered_by_production": dict(sorted(functions.items())),
            "default_only_in_production": dict(sorted(params.items()))}


def loginspect_modes() -> None:
    """Every mode of the loginspect CLI, over a directory archive of two databases."""
    from repro import Engine
    from repro.tools.loginspect import main

    engine = Engine()
    with tempfile.TemporaryDirectory(prefix="census-") as directory:
        for name in ("shop", "shop-eu"):
            engine.create_database(name)
            engine.enable_archiving(name, directory=directory)
            engine.sql("CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))", name)
            engine.sql("INSERT INTO t VALUES " + ", ".join(f"({i})" for i in range(20)), name)
            engine.database(name).log.flush()
        engine.replication_tick()
        for flags in LOGINSPECT:
            main(["--archive", directory, *flags.split()])


def child(out: str, kind: str, *argv: str) -> None:
    """One traced entry point, its ``Tracer.result()`` written to ``out``."""
    with Tracer(SRC) as tracer, contextlib.suppress(SystemExit):
        if kind == "workload":
            from lab.runner import run_workload  # perflab/lab, read and never edited
            run_workload(argv[0], seed=1, scale="tiny", trace=False)
        elif kind == "loginspect":
            loginspect_modes()
        else:
            sys.argv = list(argv)
            (runpy.run_module if kind == "module" else runpy.run_path)(argv[0], run_name="__main__")
    Path(out).write_text(json.dumps(tracer.result()))


def entry_points():
    """``(class, kind, *argv)`` of every traced run, relative to the tree: production first, tier-1 last."""
    pytest = ("pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0")  # one run, one set of examples
    yield from (("production", "workload", w["name"]) for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])
    benches = sorted(f"benchmarks/{f.name}" for f in (ROOT / "benchmarks").glob("bench_*.py"))
    yield "production", "module", *pytest, "--smoke", *benches
    yield from (("production", "script", f"examples/{f.name}") for f in sorted((ROOT / "examples").glob("*.py")))
    yield from (("production", "module", f"repro.tools.{cli.split()[0]}", *cli.split()[1:]) for cli in CLIS)
    yield "production", "loginspect"
    yield "tier1", "module", *pytest, "tests"


def main() -> None:
    runs = {"production": [], "tier1": []}
    with tempfile.TemporaryDirectory(prefix="census-") as work:
        # Every run works in one copy of the tree: the benches rewrite bench_results/, and no
        # local state (.hypothesis/, __pycache__/) is carried in.
        tree = Path(shutil.copytree(ROOT, Path(work, "tree"), ignore=shutil.ignore_patterns(".*", "__pycache__")))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(tree / "perflab")])}
        code = "import sys; sys.path.insert(0, 'benchmarks'); import census; census.child(*sys.argv[1:])"
        for index, (cls, kind, *argv) in enumerate(entry_points()):
            print(f"census: {cls} {kind} {' '.join(argv)}", flush=True)
            out = Path(work, f"{index}.json")
            subprocess.run([sys.executable, "-c", code, out, kind, *argv], cwd=tree, env=env, stdout=subprocess.DEVNULL)
            runs[cls].append(json.loads(out.read_text()))
        doc = classify(str(tree / "src" / "repro"), runs["production"], runs["tier1"])
    (ROOT / "bench_results" / "census.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(json.dumps({key: doc[key] for key in ("lines", "functions", "default_only")}))


if __name__ == "__main__":
    main()
