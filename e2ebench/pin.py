"""Write ``expected.json``: pinned input digests and answer fingerprints.

Run once, when the benchmark is defined (``python3 e2ebench/pin.py``).  The
digests of the program text and of the data before renaming hold for every
seed; the digests of the data as written and the answer fingerprints are
pinned for seeds 11, 12 and 13.  The iWarded answers come
from ``executor="naive"`` and must agree with the workload's own executor
and — their ground part — with the independent Skolem chase of
``reference.py``, or nothing is written.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import reference  # noqa: E402

PINNED_SEEDS = (11, 12, 13)


def answers_of(directory: Path, executor: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--dir", str(directory), "--executor", executor],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["answers"]


def main() -> int:
    expected = {"shapes": {}, "seeds": {}}
    for seed in PINNED_SEEDS:
        for workload, (executor, _why) in inputs.WORKLOADS.items():
            with tempfile.TemporaryDirectory(dir=HERE) as scratch:
                directory = Path(scratch)
                manifest = inputs.build(workload, seed, directory)
                expected["shapes"][workload] = {
                    part: manifest[part] for part in ("program_sha256", "shape_sha256")
                }
                pin = {"data_sha256": manifest["data_sha256"]}
                if (directory / "rows.json").exists() and workload != "service.mixed":
                    naive = answers_of(directory, "naive")
                    own = answers_of(directory, executor)
                    facts = reference.skolem_chase(
                        (directory / "program.vada").read_text(),
                        json.loads((directory / "rows.json").read_text()),
                    )
                    kinds = ("ground",) if executor == "streaming" else ("ground", "patterns")
                    for predicate, want in naive.items():
                        skolem = reference.digest(reference.ground(facts.get(predicate, ())))
                        if want["ground"] != skolem or any(
                            own[predicate][k] != want[k] for k in kinds
                        ):
                            print(f"{workload} seed {seed}: {predicate} disagrees", file=sys.stderr)
                            return 1
                    pin["answers"] = {k: reference.combined(naive, k) for k in kinds}
                expected["seeds"].setdefault(str(seed), {})[workload] = pin
                print(f"pinned {workload} at seed {seed}")
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
