"""Loading the shipped document set (or any directory of .lsc files)."""

from __future__ import annotations

from pathlib import Path

from .catalog import Catalog, link
from .dsl import SourceDocument, parse


class CorpusError(ValueError):
    pass


def read_sources(path: str | Path | None = None) -> list[tuple[str, str]]:
    """(display name, text) pairs, sorted by name.  None means the corpus
    shipped inside the package, found next to this module (importlib.resources
    imports inspect on Python 3.12); a directory means its *.lsc files; a file
    means just that file."""
    p = Path(__file__).with_name("corpus") if path is None else Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.lsc"))
    elif p.is_file():
        files = [p]
    else:
        raise CorpusError(f"no such file or directory: {path}")
    return [(f.name, _read(f)) for f in files]


def _read(f: Path) -> str:
    try:
        return f.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    except OSError as exc:  # a directory named *.lsc, say
        reason = exc.strerror
    raise CorpusError(f"cannot read {f}: {reason}")


def parse_sources(sources: list[tuple[str, str]]) -> list[SourceDocument]:
    return [parse(text, path=name) for name, text in sources]


def load_corpus(path: str | Path | None = None) -> Catalog:
    """Parse and link a document set, insisting on clean sources."""
    docs = parse_sources(read_sources(path))
    problems = [
        f"{doc.path}:{diag}" for doc in docs for diag in doc.diagnostics
    ]
    if problems:
        raise CorpusError("\n".join(problems))
    return link(docs)
