"""Plain-text grammars for complexes, simplex lists, chains, and matchings.

All four formats are line-oriented and diff-friendly: `#` starts a comment,
blank lines are ignored, vertices are non-negative integers.

complex   one simplex per line as strictly ascending integers; the complex
          is the downward closure of the listed faces
simplices one simplex per line, file order kept, duplicates collapsed
chain     `coeff: v1 v2 ...` with a nonzero integer coefficient per line
matching  `v1 v2 ... -> w1 w2 ...` pairing a facet with a cofacet
"""

from __future__ import annotations

from .errors import FormatError
from .homology import Chain
from .morse import Matching, _matching
from .simplicial import Complex, Simplex, _closure, mask_of, maximal_simplices, vertices_of


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body


def _parse_int(tok: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError("not an integer", line=lineno, token=tok) from None


def _parse_simplex(text: str, lineno: int) -> Simplex:
    toks = text.split()
    if not toks:
        raise FormatError("empty simplex", line=lineno, token=text.strip() or "''")
    verts = [_parse_int(t, lineno) for t in toks]
    for v in verts:
        if v < 0:
            raise FormatError("negative vertex", line=lineno, token=str(v))
    for a, b in zip(verts, verts[1:]):
        if a >= b:
            raise FormatError(
                "vertices must strictly ascend", line=lineno, token=str(b)
            )
    return tuple(verts)


def parse_complex(text: str) -> Complex:
    faces = [_parse_simplex(body, lineno) for lineno, body in _content_lines(text)]
    if not faces:
        raise FormatError("complex file lists no faces", line=1)
    return _closure(faces)  # _parse_simplex made simplex()'s checks, with line numbers


def serialize_complex(c: Complex) -> str:
    lines = ["# maximal faces, one per line, vertices ascending"]
    lines.extend(" ".join(str(v) for v in s) for s in maximal_simplices(c))
    return "\n".join(lines) + "\n"


def parse_simplex_list(text: str) -> list:
    """Simplices one per line, kept in file order, duplicates collapsed."""
    out = []
    seen = set()
    for lineno, body in _content_lines(text):
        s = _parse_simplex(body, lineno)
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


def parse_chain(text: str) -> Chain:
    terms: dict = {}
    dim = None
    for lineno, body in _content_lines(text):
        head, sep, tail = body.partition(":")
        if not sep:
            raise FormatError("missing ':'", line=lineno, token=body)
        coeff = _parse_int(head.strip(), lineno)
        if coeff == 0:
            raise FormatError("zero coefficient", line=lineno, token=head.strip())
        s = _parse_simplex(tail, lineno)
        if dim is None:
            dim = len(s) - 1
        elif len(s) - 1 != dim:
            raise FormatError(
                f"simplex dimension {len(s) - 1} differs from {dim}",
                line=lineno,
                token=tail.strip(),
            )
        if s in terms:
            raise FormatError("duplicate simplex", line=lineno, token=tail.strip())
        terms[s] = coeff
    if dim is None:
        raise FormatError("chain file has no terms", line=1)
    return Chain(dimension=dim, terms=terms)  # _parse_simplex made make_chain()'s checks


def serialize_chain(z: Chain) -> str:
    if z.is_zero():
        return f"# zero chain of dimension {z.dimension}\n"
    lines = [
        f"{z.terms[s]}: " + " ".join(str(v) for v in s) for s in sorted(z.terms)
    ]
    return "\n".join(lines) + "\n"


def parse_matching(text: str) -> Matching:
    pairs = []
    for lineno, body in _content_lines(text):
        left, sep, right = body.partition("->")
        if not sep:
            raise FormatError("missing '->'", line=lineno, token=body)
        if "->" in right:
            raise FormatError("more than one '->'", line=lineno, token=body)
        if not left.strip() or not right.strip():
            raise FormatError("orphan simplex in pair", line=lineno, token=body)
        lo = _parse_simplex(left, lineno)
        up = _parse_simplex(right, lineno)
        if len(up) != len(lo) + 1 or not set(lo) < set(up):
            raise FormatError(
                "left side must be a facet of the right side",
                line=lineno,
                token=body,
            )
        pairs.append((mask_of(lo), mask_of(up)))
    return _matching(pairs)  # _parse_simplex made matching_from_pairs()'s checks


def serialize_matching(m: Matching) -> str:
    lines = ["# matched pairs, facet -> cofacet"]
    for pair in m.pairs:
        lo, up = (" ".join(str(v) for v in vertices_of(mask)) for mask in pair)
        lines.append(f"{lo} -> {up}")
    return "\n".join(lines) + "\n"
