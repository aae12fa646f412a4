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
workload's child has loaded some, such as ``sqlite3``, for its own ends).
A second fresh process per workload, without cProfile, traces the
reasoning regions with :mod:`tracemalloc`: the peak of traced bytes and the
blocks still live when the last region ends.  Two runs on one tree print
the same call counts and counters; the traced memory repeats to within
0.1 % (the peak moves by a few hundred bytes between processes).

    python tools/cost_ledger.py --report head.json            # this tree
    python tools/cost_ledger.py --src BASE/src --report base.json
    python tools/cost_ledger.py compare base.json head.json   # exact deltas

``compare`` is a gate: it exits 1 when a set-up or reasoning total rises by
more than 1 % (:data:`TOTAL_BOUND`), the reasoning phase's traced peak
rises by more than 1 % (:data:`MEMORY_BOUND`) or a chase counter moves, on
any workload, unless ``--expect`` names the move: ``reason`` or ``setup``
for a total, ``memory`` for the peak, ``counter:NAME`` for a counter, each
optionally ``@WORKLOAD`` for one workload only (``--expect
counter:strategy_admitted@iwarded.chase``).  Live blocks are printed, not
gated.
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
import tracemalloc
from pathlib import Path
from typing import Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "e2ebench"


def _load_inputs():
    """``e2ebench/inputs.py``, read-only, without putting ``e2ebench`` on the path."""
    spec = importlib.util.spec_from_file_location("e2ebench_inputs", E2E / "inputs.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _load_inputs()

#: The largest rise of a set-up or reasoning total ``compare`` passes.
TOTAL_BOUND = 0.01
#: The largest rise of the reasoning phase's traced peak ``compare`` passes;
#: the peak repeats to within a few hundred bytes.
MEMORY_BOUND = 0.01

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


def _drive(directory: Path, root):
    """Run one workload whose inputs are in ``directory`` (this process),
    ``root(name)`` wrapping each region ``e2ebench/child.py`` times:
    ``"setup"``, then ``"reason"`` or one region per service operation."""
    sys.path.insert(0, str(E2E))
    import child  # e2ebench/child.py, read-only

    import repro  # noqa: F401  (imported before any region starts)

    manifest = json.loads((directory / "manifest.json").read_text())
    text = (directory / "program.vada").read_text()
    rows = None
    if (directory / "rows.json").exists():
        rows = json.loads((directory / "rows.json").read_text())
        rows = {name: [tuple(row) for row in table] for name, table in rows.items()}
    if manifest["workload"] == "service.mixed":
        ops = json.loads((directory / "ops.json").read_text())
        return child.run_service(text, rows, ops, root)
    return child.run_batch(manifest, text, rows, directory, root)


def _reason_regions(directory: Path) -> int:
    """How many regions the reasoning phase of the workload in ``directory`` has."""
    ops = directory / "ops.json"
    return len(json.loads(ops.read_text())) if ops.exists() else 1


def run_child(directory: Path) -> Dict[str, object]:
    """Profile one workload whose inputs are in ``directory`` (this process)."""
    profiles = {"setup": cProfile.Profile(), "reason": cProfile.Profile()}

    @contextlib.contextmanager
    def root(name: str):
        profile = profiles["setup" if name == "setup" else "reason"]
        profile.enable()
        try:
            yield
        finally:
            profile.disable()

    result = _drive(directory, root)
    report = {phase: _phase(profile) for phase, profile in profiles.items()}
    stats = result["stats"].get("chase") or result["stats"]["service"]["resident"]
    report["counters"] = {k: v for k, v in stats.items() if isinstance(v, int)}
    report["failed"] = result["failed"]
    return report


def run_memory_child(directory: Path) -> Dict[str, object]:
    """Trace the reasoning phase's allocations (this process, no cProfile).

    Tracing starts when the first reasoning region opens and is read when
    the last one closes: ``peak_bytes`` is the most traced memory at any
    point in between, ``live_blocks`` the blocks allocated since the start
    and still held at the end.
    """
    last = _reason_regions(directory)
    seen = 0
    memory: Dict[str, int] = {}

    @contextlib.contextmanager
    def root(name: str):
        nonlocal seen
        if name == "setup":
            yield
            return
        if not seen:
            tracemalloc.start()
        try:
            yield
        finally:
            seen += 1
            if seen == last:
                memory["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                memory["live_blocks"] = len(tracemalloc.take_snapshot().traces)
                tracemalloc.stop()

    result = _drive(directory, root)
    memory["failed"] = result["failed"]
    return memory


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
            passes = {}
            for flag in ("--child", "--memory-child"):
                # Fresh inputs per pass: a run writes its answers back.
                directory = Path(scratch) / flag.strip("-") / workload
                inputs.build(workload, seed, directory, scale=scale)
                child = subprocess.run(
                    [sys.executable, __file__, flag, str(directory)],
                    env=env, capture_output=True, text=True,
                )
                if child.returncode:
                    raise RuntimeError(f"{workload} failed:\n{child.stderr}")
                passes[flag] = json.loads(child.stdout.splitlines()[-1])
            report[workload] = passes["--child"]
            memory = passes["--memory-child"]
            report[workload]["failed"] += memory.pop("failed")
            report[workload]["memory"] = memory
            report[workload]["imports"] = imports
    return report


def _change(base: int, head: int) -> float:
    return (head - base) / max(base, 1)


def compare(base: Dict[str, object], head: Dict[str, object], top: int = 12) -> List[str]:
    """Exact base -> head deltas: totals, the largest per-function moves,
    the reasoning phase's traced memory, counters and the modules
    ``import repro`` stopped or started loading."""
    lines = []
    for workload in [w for w in base if w in head]:
        for phase in ("setup", "reason"):
            b, h = base[workload][phase], head[workload][phase]
            lines.append(
                f"{workload} {phase}: {b['total']} -> {h['total']} "
                f"({_change(b['total'], h['total']):+.1%})"
            )
            bf, hf = b["functions"], h["functions"]
            deltas = {n: hf.get(n, 0) - bf.get(n, 0) for n in set(bf) | set(hf)}
            moved = sorted((n for n in deltas if deltas[n]), key=lambda n: (-abs(deltas[n]), n))
            for n in moved[:top]:
                lines.append(f"  {deltas[n]:+9d}  {bf.get(n, 0):>9d} -> {hf.get(n, 0):<9d} {n}")
        memory_b, memory_h = base[workload].get("memory"), head[workload].get("memory")
        if memory_b and memory_h:
            peak_b, peak_h = memory_b["peak_bytes"], memory_h["peak_bytes"]
            blocks_b, blocks_h = memory_b["live_blocks"], memory_h["live_blocks"]
            lines.append(
                f"  memory: peak {peak_b} -> {peak_h} bytes ({_change(peak_b, peak_h):+.1%}), "
                f"live blocks {blocks_b} -> {blocks_h} ({_change(blocks_b, blocks_h):+.1%})"
            )
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


def violations(
    base: Dict[str, object], head: Dict[str, object], expect: Iterable[str] = ()
) -> List[str]:
    """The moves ``compare`` fails on: a set-up or reasoning total up by
    more than :data:`TOTAL_BOUND`, a reasoning peak up by more than
    :data:`MEMORY_BOUND`, or a counter that moved, on a workload both
    reports hold, unless ``expect`` names it (module docstring)."""
    expected = set(expect)

    def named(move: str, workload: str) -> bool:
        return move in expected or f"{move}@{workload}" in expected

    found = []
    for workload in [w for w in base if w in head]:
        for phase in ("setup", "reason"):
            b, h = base[workload][phase]["total"], head[workload][phase]["total"]
            if _change(b, h) > TOTAL_BOUND and not named(phase, workload):
                found.append(f"{workload} {phase} total {b} -> {h} ({_change(b, h):+.1%})")
        memory_b, memory_h = base[workload].get("memory"), head[workload].get("memory")
        if memory_b and memory_h:
            b, h = memory_b["peak_bytes"], memory_h["peak_bytes"]
            if _change(b, h) > MEMORY_BOUND and not named("memory", workload):
                found.append(f"{workload} reason peak {b} -> {h} bytes ({_change(b, h):+.1%})")
        counters_b, counters_h = base[workload]["counters"], head[workload]["counters"]
        for key in sorted(set(counters_b) | set(counters_h)):
            moved = counters_b.get(key) != counters_h.get(key)
            if moved and not named(f"counter:{key}", workload):
                found.append(
                    f"{workload} counter {key} {counters_b.get(key)} -> {counters_h.get(key)}"
                )
    return found


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="cost_ledger.py compare")
        parser.add_argument("base", type=Path)
        parser.add_argument("head", type=Path)
        parser.add_argument(
            "--expect", action="append", default=[], metavar="MOVE",
            help="a move the change intends: reason, setup, memory or counter:NAME, "
            "optionally @WORKLOAD (repeatable)",
        )
        args = parser.parse_args(argv[1:])
        base, head = (json.loads(path.read_text()) for path in (args.base, args.head))
        print("\n".join(compare(base, head)))
        found = violations(base, head, args.expect)
        for move in found:
            print(f"FAIL {move}")
        return 1 if found else 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink the inputs (tests)")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the code to profile")
    parser.add_argument("--report", type=Path, help="write the JSON report here")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--memory-child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(run_child(args.child), default=str))
        return 0
    if args.memory_child is not None:
        print(json.dumps(run_memory_child(args.memory_child)))
        return 0
    report = measure(args.workload or list(inputs.WORKLOADS), args.seed, args.scale, args.src)
    for workload, phases in report.items():
        print(f"{workload}: setup {phases['setup']['total']} calls, "
              f"reason {phases['reason']['total']} calls, "
              f"reason peak {phases['memory']['peak_bytes']} traced bytes, "
              f"failed {phases['failed']}")
    if args.report:
        args.report.write_text(json.dumps(report, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
