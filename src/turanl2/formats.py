"""Text formats for graphs and partitions.

.h3  3-graphs: line 1 "n m", then m lines "a b c" (0-indexed).  The parser
     accepts vertices of a triple in any order and normalizes; the emitter
     writes ascending triples in lexicographic line order.
.p3  partition sidecar: a single line over {1,2,3}, one character per vertex.
.cg  colored 2-graph: "n", color string, "m", then m lines "a b".

Lines starting with '#' and blank lines are ignored on input, so the color
line of a 0-vertex partition, which is blank, is absent.  A repeated triple or
pair (in any vertex order) is rejected, never merged.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .colored import ColoredGraph
from .constructions import Partition3
from .errors import FormatError
from .hypergraph import ThreeGraph, make_graph, make_pair_graph

PathLike = Union[str, Path]


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _ints(line: str, count: int, what: str) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        raise FormatError(f"expected {count} fields for {what}, got {line!r}")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise FormatError(f"non-integer field in {what}: {line!r}") from exc


def _reject_duplicate(lines: list[str], rows: list[list[int]], what: str) -> None:
    """Raise on the first row that repeats an earlier one as a vertex set."""
    seen: dict[tuple[int, ...], str] = {}
    for line, row in zip(lines, rows):
        key = tuple(sorted(row))
        if key in seen:
            raise FormatError(f"duplicate {what} {line!r} repeats {seen[key]!r}")
        seen[key] = line


def parse_h3(text: str) -> ThreeGraph:
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty .h3 input")
    n, m = _ints(lines[0], 2, ".h3 header")
    if len(lines) - 1 != m:
        raise FormatError(f".h3 header promises {m} edges, found {len(lines) - 1}")
    rows = [_ints(line, 3, ".h3 edge") for line in lines[1:]]
    h = make_graph(n, rows)
    if len(h.edges) != m:
        _reject_duplicate(lines[1:], rows, ".h3 edge")
    return h


def write_h3(h: ThreeGraph) -> str:
    out = [f"{h.n} {len(h.edges)}"]
    out.extend(f"{a} {b} {c}" for a, b, c in h.edges)
    return "\n".join(out) + "\n"


def parse_p3(text: str) -> Partition3:
    lines = _content_lines(text) or [""]
    if len(lines) != 1:
        raise FormatError(".p3 must be a single color line")
    return Partition3.from_string(lines[0])


def write_p3(p: Partition3) -> str:
    return "".join(str(c) for c in p.parts) + "\n"


def parse_cg(text: str) -> ColoredGraph:
    lines = _content_lines(text)
    (n,) = _ints(lines[0] if lines else "", 1, ".cg vertex count")
    if n == 0:
        lines.insert(1, "")
    if len(lines) < 3:
        raise FormatError(".cg needs at least n, colors, and m lines")
    partition = Partition3.from_string(lines[1])
    if partition.n != n:
        raise FormatError(f".cg color line has {partition.n} entries, expected {n}")
    (m,) = _ints(lines[2], 1, ".cg edge count")
    if len(lines) - 3 != m:
        raise FormatError(f".cg header promises {m} edges, found {len(lines) - 3}")
    rows = [_ints(line, 2, ".cg edge") for line in lines[3:]]
    g = make_pair_graph(n, rows)
    if len(g.edges) != m:
        _reject_duplicate(lines[3:], rows, ".cg edge")
    return ColoredGraph(g, partition)


def write_cg(cg: ColoredGraph) -> str:
    out = [str(cg.graph.n), "".join(str(c) for c in cg.partition.parts), str(len(cg.graph.edges))]
    out.extend(f"{a} {b}" for a, b in cg.graph.edges)
    return "\n".join(out) + "\n"


def _read_text(path: PathLike) -> str:
    """The file's text; an unreadable or non-UTF-8 file is an input error,
    not a crash."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot read {path}: not UTF-8 at byte {exc.start}") from exc


def load_h3(path: PathLike) -> ThreeGraph:
    return parse_h3(_read_text(path))


def save_h3(h: ThreeGraph, path: PathLike) -> None:
    Path(path).write_text(write_h3(h))


def load_p3(path: PathLike) -> Partition3:
    return parse_p3(_read_text(path))


def save_p3(p: Partition3, path: PathLike) -> None:
    Path(path).write_text(write_p3(p))


def load_cg(path: PathLike) -> ColoredGraph:
    return parse_cg(_read_text(path))


def save_cg(cg: ColoredGraph, path: PathLike) -> None:
    Path(path).write_text(write_cg(cg))
