"""Reference structural equality of terms, shared by the tests.

Terms are interned (see expr._file): equal terms are one object, and ==
on them is identity.  ref_equal is the structural == that nodes had
before, written independently of the intern table: it walks pairs of
nodes on a worklist, so a term of any depth compares.
"""

from dataclasses import fields

from hybridwlp.expr import Expr, Pred

_NODES = (Expr, Pred)


def _values(node) -> tuple:
    return tuple(getattr(node, f.name) for f in fields(node))


def ref_equal(a, b) -> bool:
    """Same type and equal fields, node fields compared by this walk."""
    if not isinstance(a, _NODES):
        return a == b
    pairs = [(a, b)]
    for u, w in pairs:
        if u is w:
            continue
        if type(u) is not type(w):
            return False
        for x, y in zip(_values(u), _values(w)):
            if isinstance(x, _NODES):
                pairs.append((x, y))
            elif isinstance(y, _NODES) or not x == y:
                return False
    return True
