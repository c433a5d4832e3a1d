"""JSON code-profile serialization shared by the CLI and tests.

A profile document holds a field spec, the evaluation vector as element
strings, and the twist data:

    {"field": {"p": 2, "m": 4, "modulus": [1, 1, 0, 0, 1]},
     "alpha": ["0", "a^2", "a + 1", ...],
     "k": 3, "t": [1, 2], "h": [0, 1],
     "eta": ["a^3 + a^2", "1"]}

Extra keys are ignored on load so documents emitted by the construct-*
commands (which add summary fields) round-trip unchanged.
"""

from __future__ import annotations

import json

from .codes import MultiTwistedCode, TwistProfile
from .field import Field, FieldSpec


def field_from_doc(doc: dict) -> Field:
    f = doc["field"]
    if not isinstance(f["modulus"], list):
        raise TypeError(f"modulus must be a list, got {f['modulus']!r}")
    return Field(FieldSpec(_integer(f["p"]), _integer(f["m"]), tuple(map(_integer, f["modulus"]))))


def _integer(x) -> int:
    """x itself if it is a JSON integer; a bool or a float is not one."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _elements(ctx: Field, items, key: str) -> tuple:
    """The list items as field elements: element strings, or integers in
    [0, q); any other value raises TypeError."""
    if not isinstance(items, list):
        raise TypeError(f"{key} must be a list, got {items!r}")
    for x in items:
        if not isinstance(x, str) and not 0 <= _integer(x) < ctx.q:
            raise TypeError(f"{key} item {x!r} is not an element of GF({ctx.q})")
    return ctx.parse_vector(items)


def code_from_profile(doc: dict) -> MultiTwistedCode:
    """The code a profile document describes; a missing key or a value of the
    wrong JSON type raises ValueError("malformed profile: ...")."""
    try:
        ctx = field_from_doc(doc)
        k = _integer(doc["k"])
        t = tuple(map(_integer, doc.get("t", ())))
        h = tuple(map(_integer, doc.get("h", ())))
        eta = _elements(ctx, doc.get("eta", []), "eta")
        alpha = _elements(ctx, doc["alpha"], "alpha")
    except KeyError as exc:
        raise ValueError(f"malformed profile: missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed profile: {exc}") from exc
    return MultiTwistedCode(ctx, TwistProfile(k, t, h, eta), alpha)


def profile_to_doc(code: MultiTwistedCode) -> dict:
    ctx, pr = code.ctx, code.profile
    return {
        "field": {"p": ctx.p, "m": ctx.m, "modulus": list(ctx.modulus)},
        "alpha": [ctx.format(x) for x in code.alpha],
        "k": pr.k,
        "t": list(pr.t),
        "h": list(pr.h),
        "eta": [ctx.format(e) for e in pr.eta],
    }


def load_profile(path: str) -> MultiTwistedCode:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError as exc:  # nesting deeper than the parser's stack
            raise ValueError(f"malformed profile: {exc}") from None
    return code_from_profile(doc)


def matrix_to_doc(m) -> list[list[str]]:
    return [[m.ctx.format(x) for x in row] for row in m.data]
