"""Account for a re-pin: every exact number a change moved.

Usage::

    python scripts/repin_account.py bench OLD.json NEW.json
    python scripts/repin_account.py tables OLD [NEW]

``bench`` compares two ``BENCH_<pr>.json`` perf runs.  Per workload it
prints the ``outcome_digest``, every ``simulated`` metric and every
per-layer metric ``BENCHMARK.json`` counts (unit ``count``) whose value
moved, one ``workload / metric: old → new`` line each.  These are exact
for a seed; the wall-clock metrics vary run to run and are
``benchmarks/perf/compare.py``'s business.

``tables`` compares ``benchmarks/results/*.txt`` at git revision ``OLD``
with revision ``NEW`` (default: the working tree) and prints each moved
cell as ``table / row / column: old → new``.  Every table goes through
``benchmarks/_reporting._render``: a title, its ``=`` rule, the header,
a dash line whose runs give the column widths, the rows, then a blank
line and a note.  A row is named by its leading cells, as few as make
every row of the table unique; a moved note, a row only one side has and
a file that is not a table print as whole-line changes.

The output, plus one line of cause per item, is the message of the commit
that re-pins them (``docs/performance.md``, "Re-pinning").  Only reads:
it never writes a file.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
RESULTS = "benchmarks/results"
DASHES = re.compile(r"-+(?:  -+)*\s*")


# -- bench -------------------------------------------------------------------

def _short(digest: str) -> str:
    return f"{digest[:8]}…"


def bench(old: dict, new: dict, spec: dict) -> List[str]:
    """The moved exact metrics of two suite results, one line each."""
    lines = [f"run / {field}: {old.get(field)} → {new.get(field)}"
             for field in ("seed", "scale")
             if old.get(field) != new.get(field)]
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    declared = [w["name"] for w in spec["workloads"]]
    extra = (set(old["workloads"]) | set(new["workloads"])) - set(declared)
    for name in declared + sorted(extra):
        a = old["workloads"].get(name)
        b = new["workloads"].get(name)
        if a is None or b is None:
            lines.append(f"{name}: only in {'OLD' if b is None else 'NEW'}")
            continue
        if a["digest"] != b["digest"]:
            lines.append(f"{name} / outcome_digest: {_short(a['digest'])} → "
                         f"{_short(b['digest'])}")
        simulated = list(a["simulated"]) + [m for m in b["simulated"]
                                            if m not in a["simulated"]]
        pairs = [(m, a["simulated"].get(m), b["simulated"].get(m))
                 for m in simulated]
        pairs += [(m, a["per_layer"].get(m), b["per_layer"].get(m))
                  for m in counted if m not in simulated]
        lines += [f"{name} / {metric}: {x} → {y}"
                  for metric, x, y in pairs if x != y]
    return lines


# -- tables ------------------------------------------------------------------

Table = Tuple[List[str], List[List[str]], List[str]]


def parse(text: str) -> Optional[Table]:
    """``(headers, rows, other lines)`` of one rendered table, or None when
    the text has no dash line (it is not a ``_render`` table)."""
    lines = text.splitlines()
    rule = next((i for i, line in enumerate(lines)
                 if i and DASHES.fullmatch(line)), None)
    if rule is None:
        return None
    starts = [match.start() for match in re.finditer(r"-+", lines[rule])]

    def cells(line: str) -> List[str]:
        ends = starts[1:] + [len(line)]
        return [line[s:e].strip() for s, e in zip(starts, ends)]

    end = next((i for i in range(rule + 1, len(lines)) if not lines[i]),
               len(lines))
    rows = [cells(line) for line in lines[rule + 1:end]]
    return cells(lines[rule - 1]), rows, lines[:rule - 1] + lines[end:]


def _labels(rows: Sequence[Sequence[str]], width: int) -> List[str]:
    """Each row's name: its first ``width`` cells."""
    return [" ".join(row[:width]) for row in rows]


def compare_table(table: str, old: str, new: str) -> List[str]:
    """The moved cells of one results file, one line each."""
    before, after = parse(old), parse(new)
    if before is None or after is None or before[0] != after[0]:
        return [f"{table}: text changed"] if old != new else []
    headers, old_rows, old_rest = before
    _, new_rows, new_rest = after
    width = next((k for k in range(1, len(headers) + 1)
                  if all(len(set(labels)) == len(labels) for labels in
                         (_labels(old_rows, k), _labels(new_rows, k)))),
                 len(headers))
    old_by = dict(zip(_labels(old_rows, width), old_rows))
    new_by = dict(zip(_labels(new_rows, width), new_rows))
    lines = []
    for label, row in old_by.items():
        other = new_by.get(label)
        if other is None:
            lines.append(f"{table} / {label}: row removed")
            continue
        lines += [f"{table} / {label} / {column}: {x} → {y}"
                  for column, x, y in zip(headers, row, other) if x != y]
    lines += [f"{table} / {label}: row added"
              for label in new_by if label not in old_by]
    if old_rest != new_rest:
        lines.append(f"{table} / note: text changed")
    return lines


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout


def results_at(revision: Optional[str]) -> Dict[str, str]:
    """``table -> text`` of every results file at a git revision, or in
    the working tree when ``revision`` is None."""
    if revision is None:
        return {path.stem: path.read_text()
                for path in sorted((ROOT / RESULTS).glob("*.txt"))}
    names = _git("ls-tree", "--name-only", f"{revision}:{RESULTS}")
    return {Path(name).stem: _git("show", f"{revision}:{RESULTS}/{name}")
            for name in names.split() if name.endswith(".txt")}


def tables(old: Dict[str, str], new: Dict[str, str]) -> List[str]:
    """The moved cells of every results file, by table name."""
    lines = []
    for table in sorted(set(old) | set(new)):
        if table not in new:
            lines.append(f"{table}: removed")
        elif table not in old:
            lines.append(f"{table}: added")
        else:
            lines += compare_table(table, old[table], new[table])
    return lines


def main(argv: Sequence[str]) -> int:
    if len(argv) == 3 and argv[0] == "bench":
        old, new = (json.loads(Path(path).read_text()) for path in argv[1:])
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        lines = bench(old, new, spec)
    elif len(argv) in (2, 3) and argv[0] == "tables":
        lines = tables(results_at(argv[1]),
                       results_at(argv[2] if len(argv) == 3 else None))
    else:
        sys.stderr.write("\n\n".join(__doc__.split("\n\n")[1:3]) + "\n")
        return 2
    print("\n".join(lines) if lines else "nothing moved")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
