"""Reference structural equality and hash of terms, shared by the tests.

Terms are interned (see expr._file): equal terms are one object, and ==
on them is identity.  These are the structural == and hash that nodes had
before, written independently of the intern table: ref_equal walks pairs
of nodes on a worklist, and ref_hash computes hash((field, ...)) children
first, each node field hashed by ref_hash itself.  Neither reads a node's
own hash, and neither recurses, so a term of any depth compares.
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


class _HashedAs:
    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value


def ref_hash(node) -> int:
    """hash((field, ...)), each node field hashed by this function."""
    if not isinstance(node, _NODES):
        return hash(node)
    hashes: dict = {}  # id(node) -> its hash, for the nodes done
    stack = [node]
    while stack:
        top = stack[-1]
        kids = [v for v in _values(top) if isinstance(v, _NODES) and id(v) not in hashes]
        if kids:
            stack += kids
            continue
        stack.pop()
        hashes[id(top)] = hash(tuple(_HashedAs(hashes[id(v)]) if isinstance(v, _NODES) else v
                                     for v in _values(top)))
    return hashes[id(node)]
