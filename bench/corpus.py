"""Seeded input corpus for the benchmark (standard library only).

The benchmark owns its inputs: the nine mini-C programs under
``bench/programs`` are renamed here without the program's lexer or its
own corpus generator, so a change to either cannot silently change what
the benchmark measures.  ``run.py`` checks the seed-0 digests pinned in
``workloads.py`` before every run.

File ``i`` of a corpus is

* an exact copy of an earlier file's content under a new name when
  ``i`` is a duplicate position.  Exactly 7 of every 20 positions are
  duplicates (35%), so every seed has the same number of distinct
  sources, with the same programs behind them.  The seed picks which
  earlier file is copied;
* otherwise program ``PROGRAMS[i % 9]``'s unoptimized variant with
  every user identifier given one seeded per-file suffix.  Renaming
  keeps the program's shape, so its plan, its stdout and its transfers
  equal the base program's.

Everything is a pure function of ``(seed, i)``, so a corpus of ``n``
files is the first ``n`` files of any longer corpus with the same seed.
"""

from __future__ import annotations

import hashlib
import random
import re
from pathlib import Path

PROGRAM_DIR = Path(__file__).resolve().parent / "programs"

#: The nine evaluation programs, in the paper's order.
PROGRAMS = (
    "accuracy", "ace", "backprop", "bfs", "clenergy",
    "hotspot", "lulesh", "nw", "xsbench",
)

#: C keywords, library names and OpenMP words that keep their spelling.
_PROTECTED = frozenset("""
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Bool main printf floor sqrt fabs exp log pow malloc calloc free abs
    size_t int8_t int16_t int32_t int64_t uint8_t uint16_t uint32_t uint64_t
    define pragma omp target teams distribute parallel simd map to from
    tofrom alloc reduction private firstprivate shared collapse num_teams
    num_threads thread_limit schedule dynamic defined data enter exit update
""".split())

#: Comments, literals and numbers are copied verbatim; identifiers are
#: renamed; a ``#`` line is rewritten identifier by identifier too.
_TOKEN = re.compile(
    r"""
      (?P<skip>/\*.*?\*/ | //[^\n]* | "(?:\\.|[^"\\\n])*" | '(?:\\.|[^'\\\n])*'
              | \.?[0-9](?:[eEpP][+-]|[0-9A-Za-z_.])* )
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE | re.DOTALL,
)


def program_source(name: str, variant: str = "unoptimized") -> str:
    return (PROGRAM_DIR / f"{name}_{variant}.c").read_text(encoding="utf-8")


def rename(source: str, rng: random.Random) -> str:
    """``source`` with every unprotected identifier suffixed."""
    suffix = f"_s{rng.randrange(16 ** 8):08x}"

    def sub(match: re.Match) -> str:
        name = match.group("ident")
        if name is None or name in _PROTECTED:
            return match.group(0)
        return name + suffix

    return _TOKEN.sub(sub, source)


def is_duplicate(i: int) -> bool:
    """Exactly 7 of every 20 positions (35%) repeat earlier content."""
    return (7 * (i + 1)) // 20 > (7 * i) // 20


def generate(count: int, seed: int) -> list[tuple[str, str]]:
    """The first ``count`` ``(source, filename)`` pairs for ``seed``."""
    bases = {name: program_source(name) for name in PROGRAMS}
    corpus: list[tuple[str, str]] = []
    for i in range(count):
        rng = random.Random(f"{seed}:{i}")
        if i > 0 and is_duplicate(i):
            source, original = corpus[rng.randrange(i)]
            base = base_of(original)
        else:
            base = PROGRAMS[i % len(PROGRAMS)]
            source = rename(bases[base], rng)
        corpus.append((source, f"f{i:05d}_{base}.c"))
    return corpus


def distinct(corpus: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """The first file with each content, in corpus order."""
    seen: set[str] = set()
    out = []
    for source, filename in corpus:
        if source not in seen:
            seen.add(source)
            out.append((source, filename))
    return out


def digest(corpus: list[tuple[str, str]]) -> str:
    """sha256 over every filename and source, in order."""
    h = hashlib.sha256()
    for source, filename in corpus:
        h.update(filename.encode())
        h.update(b"\0")
        h.update(source.encode())
        h.update(b"\0")
    return h.hexdigest()


def base_of(filename: str) -> str:
    """The program a corpus file was renamed from."""
    return filename.split("_", 1)[1][:-2]
