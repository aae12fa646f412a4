"""CSV record managers (Section 4: record managers adapt external sources).

The evaluation of the paper uses plain CSV archives as storage so that the
measured times reflect the reasoner itself.  These helpers load and save
relations in that format, with a light-weight type inference for numeric
columns (quoted values always stay strings).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Optional, Sequence, Union

from .database import Relation


def _coerce(value: str) -> object:
    """Infer int/float/bool values from their textual representation."""
    text = value.strip()
    if text.lower() in {"true", "false"}:
        return text.lower() == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def load_relation_csv(
    path: Union[str, Path],
    name: Optional[str] = None,
    has_header: bool = False,
    delimiter: str = ",",
) -> Relation:
    """Load a relation from a CSV file (one tuple per row)."""
    path = Path(path)
    relation_name = name or path.stem
    rows: List[Sequence[object]] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        for index, row in enumerate(reader):
            if index == 0 and has_header:
                continue
            if not row:
                continue
            rows.append(tuple(_coerce(cell) for cell in row))
    arity = len(rows[0]) if rows else 0
    relation = Relation(relation_name, arity)
    relation.extend(rows)
    return relation


def save_relation_csv(
    relation: Relation, path: Union[str, Path], delimiter: str = ","
) -> Path:
    """Write a relation to a CSV file, one tuple per row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        for row in relation.tuples:
            writer.writerow(row)
    return path
