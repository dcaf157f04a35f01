"""Flat ``key = value`` text: the reader, the parser that types a value by the kind of its key,
and the writer whose text they give back bit for bit. Config, model and CSV files all use them.
"""

from __future__ import annotations

import struct
from dataclasses import fields

from .quantities import raise_problems

# How a flat value's text becomes a typed value, by the kind of its key: a dataclass field annotation.
VALUE_KINDS = {
    "float": (float, "a number"),
    "int": (int, "an integer"),
    "str": (str, "text"),
    "tuple[float, ...]": (lambda text: tuple(float(cell) for cell in text.split(",")),
                          "comma-separated numbers"),
    "tuple[str, ...]": (lambda text: tuple(cell.strip() for cell in text.split(",") if cell.strip()),
                        "comma-separated names"),
}


def field_kinds(cls, kinds=VALUE_KINDS) -> dict[str, str]:
    """The fields of dataclass ``cls`` whose kind is among ``kinds``, with their kind, in field order."""
    return {f.name: f.type for f in fields(cls) if f.type in kinds}


def read_key_value_file(path) -> dict[str, tuple[int, str]]:
    """Parse flat ``key = value`` text into {key: (line number, value)}.

    Blank lines and # comments are skipped, and a leading byte order mark is
    ignored. A line without ``=`` and a repeated key are errors; one
    ValueError lists every such line.
    """
    entries: dict[str, tuple[int, str]] = {}
    problems: list[str] = []
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                problems.append(f"line {lineno}: expected key = value, got {line!r}")
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key in entries:
                problems.append(f"line {lineno}: duplicate key {key!r}")
                continue
            entries[key] = (lineno, value.strip())
    raise_problems(problems)
    return entries


def parse_values(entries: dict[str, tuple[int | None, str]], kinds: dict[str, str],
                 problems: list[str]) -> dict:
    """The typed value of each {key: (line number or None, text)} entry, by the kind of its key.

    A value that does not parse is left out and adds one problem, which names its line if it has one.
    """
    values = {}
    for key, (lineno, text) in entries.items():
        parse, noun = VALUE_KINDS[kinds[key]]
        try:
            values[key] = parse(text)
        except ValueError:
            where = f"line {lineno}: " if lineno is not None else ""
            problems.append(f"{where}{key}: could not parse {text!r} as {noun}")
    return values


def format_value(value, kind: str) -> str:
    """The text of a value of ``kind``: 17 significant digits for a float, comma-separated cells for a tuple."""
    if kind.startswith("tuple["):
        return ",".join(format_value(cell, kind[len("tuple["):-len(", ...]")]) for cell in value)
    return format(float(value), ".17g") if kind == "float" else str(value)


def format_values(values: dict, kinds: dict[str, str]) -> str:
    """``key = value`` lines that ``read_key_value_file`` and ``parse_values`` give back bit for bit.

    Raises ValueError naming a key whose value would not come back, such as text with a line break
    or outer whitespace, or a name cell that is empty or holds a comma.
    """
    lines = []
    for key, value in values.items():
        text = format_value(value, kinds[key])
        # What a UTF-8 file line gives back: its text up to a line break, stripped.
        read = text.encode(errors="replace").decode().replace("\r", "\n").partition("\n")[0].strip()
        back = parse_values({key: (None, read)}, kinds, [])
        if key not in back or _bits(back[key]) != _bits(value):
            raise ValueError(f"{key}: {value!r} would not read back as written")
        lines.append(f"{key} = {text}\n")
    return "".join(lines)


def _bits(value):
    """``value`` with each float as its IEEE 754 bytes, so that == compares bit for bit."""
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return struct.pack("<d", value) if isinstance(value, float) else value


def runs(unparsed, keys, *parts) -> bool:
    """Whether a build step runs: no key it reads is ``unparsed`` and every part it needs was built."""
    return unparsed.isdisjoint(keys) and all(part is not None for part in parts)
