"""The shipped data files, the text input readers and the output writer."""

from __future__ import annotations

import csv
import errno
import os
from collections.abc import Iterator, Mapping
from contextlib import suppress
from pathlib import Path


def _data_path(*parts: str) -> Path:
    return Path(__file__).parent.joinpath("data", *parts)


def default_patterns_dir() -> Path:
    return _data_path("patterns")


def default_known_prefixes_path() -> Path:
    return _data_path("known_prefixes.txt")


def default_game_categories_path() -> Path:
    return _data_path("game_categories.txt")


def read_list(path) -> list[str]:
    """The stripped lines of a one-entry-per-line file, without blank lines
    and lines starting with #."""
    lines = (line.strip()
             for line in Path(path).read_text(encoding="utf-8-sig").splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def read_rows(path) -> Iterator[tuple[int, list[str]]]:
    """Each CSV row as (the file line it starts on, stripped cells),
    skipping blank and # rows."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        line_no = 1
        for row in reader:
            if row and not row[0].lstrip().startswith("#"):
                yield line_no, [cell.strip() for cell in row]
            line_no = reader.line_num + 1


def write_text(texts: Mapping[Path, str]) -> list[Path]:
    """Make each text the whole UTF-8 content of its path, for every path or
    for none: each text goes to a new file beside its path (mode 0o666 less
    the umask, line ends as given), and once all are written each is renamed
    over its path, in mapping order. No path may be a directory."""
    for path in filter(os.path.isdir, texts):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    made = []
    try:
        for path, text in texts.items():
            new = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
            fd = os.open(new, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            made.append(new)
            with open(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        for new, path in zip(made, texts):
            os.replace(new, path)
    except BaseException:
        for new in made:
            with suppress(OSError):
                os.unlink(new)
        raise
    return list(texts)


def load_game_categories(path=None) -> frozenset[str]:
    return frozenset(read_list(
        path if path is not None else default_game_categories_path()))
