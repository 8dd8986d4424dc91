"""Deterministic synthetic corpus generator for batch-scale benchmarks.

The ROADMAP end state is ``ompdart batch`` over a 10k-file corpus; the
9 stored benchmarks are far too few to exercise dispatch, dedup and
cache behaviour at that scale.  :func:`generate_corpus` manufactures
arbitrarily many *parseable, plannable* translation units from the real
benchmarks' construct matrix:

* file ``i`` starts from benchmark ``BENCHMARK_ORDER[i % 9]``'s
  unoptimized source — every OpenMP construct shape in the suite
  appears with the suite's real frequency;
* every user identifier is renamed with a per-file seeded suffix
  (token-level splice for code, word-boundary rewrite inside
  preprocessor directive bodies, ``#include`` lines excluded), so each
  variant is a distinct translation unit with a distinct content hash
  while remaining token-for-token isomorphic to its base — the plans
  the tool emits are structurally identical, which makes corpus runs
  self-checking;
* a seeded fraction of files (:data:`DUPLICATE_SHARE`) instead reuses
  the exact content of an earlier file under a new filename.  Real 10k
  corpora are full of vendored/copied sources; this is what batch
  pre-dedup exists for, and the generator makes sure benchmarks
  exercise it.

Everything is a pure function of ``(count, seed)``: the per-file RNG is
``random.Random(f"{seed}:{i}")`` and renaming is driven by the raw
token stream, so corpora regenerate bit-identically across processes,
platforms and revisions (the lexer's token/offset contract is pinned by
tests).
"""

from __future__ import annotations

import random
import re
from pathlib import Path

from ..frontend.lexer import tokenize
from ..frontend.parser import BUILTIN_FUNCTION_NAMES, BUILTIN_TYPEDEFS
from ..frontend.tokens import KEYWORDS, TokenKind
from .registry import BENCHMARK_ORDER, BENCHMARKS

__all__ = [
    "DUPLICATE_SHARE",
    "generate_corpus",
    "synthesize_file",
    "write_corpus",
]

#: Probability that a generated file duplicates an earlier file's
#: content under a new name (exercises batch pre-dedup; vendored-copy
#: rates of this order are normal in large corpora).
DUPLICATE_SHARE = 0.35

#: Identifiers that must keep their spelling for the result to parse
#: and plan exactly like the base benchmark.
_PROTECTED = frozenset(BUILTIN_FUNCTION_NAMES) | frozenset(BUILTIN_TYPEDEFS) | {
    "main",
    # OpenMP directive/clause vocabulary appears inside pragma bodies;
    # pragma rewriting is keyed off the code-identifier map, but guard
    # them anyway in case a benchmark ever uses one as a variable name.
    "omp", "target", "teams", "distribute", "parallel", "for", "simd",
    "map", "to", "from", "tofrom", "alloc", "reduction", "private",
    "firstprivate", "shared", "collapse", "num_teams", "num_threads",
    "thread_limit", "schedule", "static", "dynamic", "defined",
}


def _rename_map(source: str, rng: random.Random) -> dict[str, str]:
    """old identifier -> renamed identifier, one suffix per file.

    A single per-file suffix keeps the map collision-free (distinct
    names stay distinct) and keeps every use site consistent, including
    macro names defined in ``#define`` directives and used in code.
    """
    suffix = f"_s{rng.randrange(16 ** 5):05x}"
    names: dict[str, str] = {}
    for tok in tokenize(source):
        if (
            tok.kind is TokenKind.IDENTIFIER
            and tok.text not in KEYWORDS
            and tok.text not in _PROTECTED
            and tok.text not in names
        ):
            names[tok.text] = tok.text + suffix
    return names


def _rewrite_directive(text: str, names: dict[str, str], pattern: re.Pattern) -> str:
    """Apply the rename map inside one directive's raw text.

    ``#include`` lines are returned untouched: header names share
    spellings with C identifiers (``math`` in ``math.h``) but are file
    system paths, not program identifiers.
    """
    if text.lstrip("# \t").startswith("include"):
        return text
    return pattern.sub(lambda m: names[m.group(0)], text)


def synthesize_file(base_source: str, rng: random.Random) -> str:
    """One renamed variant of ``base_source`` (token-splice rewrite)."""
    names = _rename_map(base_source, rng)
    if not names:
        return base_source
    pattern = re.compile(
        r"\b(?:" + "|".join(re.escape(n) for n in names) + r")\b"
    )
    out: list[str] = []
    last = 0
    for tok in tokenize(base_source):
        if tok.kind is TokenKind.IDENTIFIER:
            replacement = names.get(tok.text)
            if replacement is not None:
                out.append(base_source[last:tok.offset])
                out.append(replacement)
                last = tok.end_offset
        elif tok.kind is TokenKind.PRAGMA:
            out.append(base_source[last:tok.offset])
            out.append(_rewrite_directive(tok.text, names, pattern))
            last = tok.end_offset
    out.append(base_source[last:])
    return "".join(out)


def generate_corpus(count: int, seed: int = 0) -> list[tuple[str, str]]:
    """``count`` deterministic ``(filename, source)`` pairs."""
    if count < 0:
        raise ValueError("corpus size must be non-negative")
    base_sources = {
        name: BENCHMARKS[name].unoptimized_source() for name in BENCHMARK_ORDER
    }
    corpus: list[tuple[str, str]] = []
    for i in range(count):
        rng = random.Random(f"{seed}:{i}")
        base = BENCHMARK_ORDER[i % len(BENCHMARK_ORDER)]
        filename = f"synth_{i:05d}_{base}.c"
        if i > 0 and rng.random() < DUPLICATE_SHARE:
            _, source = corpus[rng.randrange(i)]
        else:
            source = synthesize_file(base_sources[base], rng)
        corpus.append((filename, source))
    return corpus


def write_corpus(
    directory: str | Path, count: int, seed: int = 0
) -> list[Path]:
    """Materialize a corpus on disk; returns the file paths in order."""
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    for filename, source in generate_corpus(count, seed):
        path = out_dir / filename
        path.write_text(source, encoding="utf-8")
        paths.append(path)
    return paths
