"""Deterministic cost ledger: Python call counts of the benchmark workloads.

Wall-clock time on a shared box cannot resolve a 10-20 % change; call counts
can.  Each workload of the end-to-end benchmark is built by
``e2ebench/inputs.py`` and run by ``e2ebench/child.py`` (both imported
read-only) in a fresh ``PYTHONHASHSEED=0`` process, under one cProfile for
set-up (the reasoner or service constructor) and one for reasoning
(``reason()``, the streaming pulls, or the service operations): exactly the
regions the benchmark times.  The report gives total calls, calls per
function and the chase counters of each phase, and the modules that
``import repro`` loads in a bare interpreter of the same environment (a
workload's child has loaded some, such as ``sqlite3``, for its own ends);
two runs on one tree print the same numbers.

    python tools/cost_ledger.py --report head.json            # this tree
    python tools/cost_ledger.py --src BASE/src --report base.json
    python tools/cost_ledger.py compare base.json head.json   # exact deltas
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "e2ebench"


def _load_inputs():
    """``e2ebench/inputs.py``, read-only, without putting ``e2ebench`` on the path."""
    spec = importlib.util.spec_from_file_location("e2ebench_inputs", E2E / "inputs.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _load_inputs()

#: Prints the modules ``import repro`` loads in a bare interpreter.
IMPORTS = (
    "import sys; before = set(sys.modules); import repro; "
    "print(' '.join(sorted(set(sys.modules) - before)))"
)


def _label(code) -> str:
    """A function's name in the report: ``path:qualified name`` under ``repro``,
    the file name elsewhere, one ``<kernel>`` for every generated join kernel."""
    if isinstance(code, str):  # a builtin
        return "builtins:" + re.sub(r" at 0x[0-9a-f]+", "", code)
    name = getattr(code, "co_qualname", code.co_name)
    filename = code.co_filename
    if filename.startswith("<"):
        return f"{filename.split(':')[0].rstrip('>')}>:{name}"
    parts = Path(filename).parts
    where = "/".join(parts[parts.index("repro"):]) if "repro" in parts else parts[-1]
    return f"{where}:{name}"


def _phase(profile: cProfile.Profile) -> Dict[str, object]:
    # The raw entries, one per code object: pstats keys functions by
    # (file, line, name) and keeps only one of two that share it.
    functions: Dict[str, int] = {}
    for entry in profile.getstats():
        label = _label(entry.code)
        functions[label] = functions.get(label, 0) + entry.callcount
    return {"total": sum(functions.values()), "functions": functions}


def run_child(directory: Path) -> Dict[str, object]:
    """Profile one workload whose inputs are in ``directory`` (this process)."""
    sys.path.insert(0, str(E2E))
    import child  # e2ebench/child.py, read-only

    import repro  # noqa: F401  (imported before any profile starts)

    manifest = json.loads((directory / "manifest.json").read_text())
    text = (directory / "program.vada").read_text()
    rows = None
    if (directory / "rows.json").exists():
        rows = json.loads((directory / "rows.json").read_text())
        rows = {name: [tuple(row) for row in table] for name, table in rows.items()}
    profiles = {"setup": cProfile.Profile(), "reason": cProfile.Profile()}

    @contextlib.contextmanager
    def root(name: str):
        profile = profiles["setup" if name == "setup" else "reason"]
        profile.enable()
        try:
            yield
        finally:
            profile.disable()

    if manifest["workload"] == "service.mixed":
        ops = json.loads((directory / "ops.json").read_text())
        result = child.run_service(text, rows, ops, root)
    else:
        result = child.run_batch(manifest, text, rows, directory, root)
    report = {phase: _phase(profile) for phase, profile in profiles.items()}
    stats = result["stats"].get("chase") or result["stats"]["service"]["resident"]
    report["counters"] = {k: v for k, v in stats.items() if isinstance(v, int)}
    report["failed"] = result["failed"]
    return report


def measure(workloads: List[str], seed: int, scale: float, src: Path) -> Dict[str, object]:
    """One fresh ``PYTHONHASHSEED=0`` process per workload, on ``src``'s code."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(src))
    if str(ROOT / "src") not in sys.path:
        sys.path.append(str(ROOT / "src"))  # inputs.build reads program texts
    report = {}
    imports = subprocess.run(
        [sys.executable, "-c", IMPORTS], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    with tempfile.TemporaryDirectory() as scratch:
        for workload in workloads:
            directory = Path(scratch) / workload
            inputs.build(workload, seed, directory, scale=scale)
            child = subprocess.run(
                [sys.executable, __file__, "--child", str(directory)],
                env=env, capture_output=True, text=True,
            )
            if child.returncode:
                raise RuntimeError(f"{workload} failed:\n{child.stderr}")
            report[workload] = json.loads(child.stdout.splitlines()[-1])
            report[workload]["imports"] = imports
    return report


def compare(base: Dict[str, object], head: Dict[str, object], top: int = 12) -> List[str]:
    """Exact base -> head deltas: totals, the largest per-function moves,
    counters and the modules ``import repro`` stopped or started loading."""
    lines = []
    for workload in [w for w in base if w in head]:
        for phase in ("setup", "reason"):
            b, h = base[workload][phase], head[workload][phase]
            change = (h["total"] - b["total"]) / max(b["total"], 1)
            lines.append(f"{workload} {phase}: {b['total']} -> {h['total']} ({change:+.1%})")
            bf, hf = b["functions"], h["functions"]
            deltas = {n: hf.get(n, 0) - bf.get(n, 0) for n in set(bf) | set(hf)}
            moved = sorted((n for n in deltas if deltas[n]), key=lambda n: (-abs(deltas[n]), n))
            for n in moved[:top]:
                lines.append(f"  {deltas[n]:+9d}  {bf.get(n, 0):>9d} -> {hf.get(n, 0):<9d} {n}")
        imports_b = set(base[workload].get("imports", ()))
        imports_h = set(head[workload].get("imports", ()))
        for sign, modules in (("+", imports_h - imports_b), ("-", imports_b - imports_h)):
            if modules:
                lines.append(f"  imports {sign}{len(modules)}: {' '.join(sorted(modules))}")
        counters_b, counters_h = base[workload]["counters"], head[workload]["counters"]
        for key in sorted(set(counters_b) | set(counters_h)):
            if counters_b.get(key) != counters_h.get(key):
                lines.append(f"  counter {key}: {counters_b.get(key)} -> {counters_h.get(key)}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="cost_ledger.py compare")
        parser.add_argument("base", type=Path)
        parser.add_argument("head", type=Path)
        args = parser.parse_args(argv[1:])
        load = lambda path: json.loads(path.read_text())  # noqa: E731
        print("\n".join(compare(load(args.base), load(args.head))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink the inputs (tests)")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the code to profile")
    parser.add_argument("--report", type=Path, help="write the JSON report here")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(run_child(args.child), default=str))
        return 0
    report = measure(args.workload or list(inputs.WORKLOADS), args.seed, args.scale, args.src)
    for workload, phases in report.items():
        print(f"{workload}: setup {phases['setup']['total']} calls, "
              f"reason {phases['reason']['total']} calls, failed {phases['failed']}")
    if args.report:
        args.report.write_text(json.dumps(report, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
