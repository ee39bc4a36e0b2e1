"""Experiment configs: one frozen spec per experiment kind, read once.

A config is a JSON object ``{"kind", "payload", "output_path"}``.  Building an
``ExperimentConfig`` reads the payload into the spec of its kind, the one
definition of its fields: a scalar field is read by its annotated type within
the bounds in its metadata, and defaults to the dataclass default.  An invalid
document raises ``ConfigInvalid`` with a path-addressed ``Diagnostic`` for
every bad or unknown field.  The payload is kept as given and echoed into the
report.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields

from . import torus, yangmills as ym
from .errors import ConfigInvalid, IndexOutOfRange

SCHEMA_VERSION = "1"

_REQUIRED = object()


@dataclass
class Diagnostic:
    severity: str
    path: str
    message: str


def _is_finite(v) -> bool:
    """A number within the float range; abs() compares a huge int exactly, not as a float."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


class _Node:
    """A JSON object or list at ``path`` whose reads add a ``Diagnostic`` per bad field.

    A read returns the field's value, its default when the key is absent, or
    None when the field is bad.  Every node goes on ``nodes``, so that object
    keys no read asked for can be reported once reading is over.
    """

    def __init__(self, value, path: str, diags: list, nodes: list):
        self.value, self.path, self.diags, self.nodes = value, path, diags, nodes
        self.used: set = set()
        nodes.append(self)

    def error(self, message: str, key=None) -> None:
        path = self.path if key is None else f"{self.path}/{key}"
        self.diags.append(Diagnostic("error", path, message))

    def read(self, key, ok, want: str, default=_REQUIRED):
        self.used.add(key)
        if isinstance(self.value, dict) and key not in self.value:
            if default is _REQUIRED:
                self.error(f"missing, must be {want}", key)
                return None
            return default
        value = self.value[key]
        if ok(value):
            return value
        self.error(f"must be {want}, got {json.dumps(value, default=repr)[:40]}", key)
        return None

    def int(self, key, default=_REQUIRED, lo=-math.inf):
        want = "an integer" + (f" >= {lo}" if lo > -math.inf else "")
        return self.read(key, lambda v: type(v) is int and v >= lo, want, default)

    def number(self, key, default=_REQUIRED, above=-math.inf):
        """A finite number strictly above the bound, as a float."""
        want = "a finite number" + (f" > {above}" if above > -math.inf else "")
        value = self.read(key, lambda v: _is_finite(v) and above < v, want, default)
        return None if value is None else float(value)

    def object(self, key, optional=False):
        """The object at key as a node; an optional one may be absent or null, read as None."""
        default = None if optional else _REQUIRED
        value = self.read(key, lambda v: isinstance(v, dict) or v is default, "an object", default)
        return None if value is None else _Node(value, f"{self.path}/{key}", self.diags, self.nodes)

    def items(self, key, read, length=None, optional=False):
        """``read(node, i)`` for each item of the list at key; None if it or any item is bad.

        An optional list may be absent or null, read as None.
        """
        default = None if optional else _REQUIRED
        want = "a list" if length is None else f"a list of {length} items"

        def ok(v):
            return v is default or isinstance(v, list) and length in (None, len(v))

        value = self.read(key, ok, want, default)
        if value is None:
            return None
        node = _Node(value, f"{self.path}/{key}", self.diags, self.nodes)
        out = [read(node, i) for i in range(len(value))]
        return None if any(v is None for v in out) else out

    def choice(self, *keys):
        """The one key of ``keys`` this object carries; None, with an error, unless exactly one."""
        self.used.update(keys)
        present = [k for k in keys if k in self.value]
        if len(present) == 1:
            return present[0]
        self.error(f"exactly one of {', '.join(keys)} required")
        return None


def _field(default=_REQUIRED, **bounds):
    """A scalar spec field: its default and the bounds its reader checks."""
    return field(default=default, metadata=bounds)


def _read_fields(cls, node, **given):
    """``cls`` with each field not ``given`` read from ``node`` by its annotated type."""
    readers = {"int": _Node.int, "float": _Node.number}
    for f in fields(cls):
        if f.name not in given:
            given[f.name] = readers[f.type](node, f.name, f.default, **f.metadata)
    return cls(**given)


# -- specs ---------------------------------------------------------------------


@dataclass(frozen=True)
class RandomConnection:
    """A seeded ``yangmills.random_connection`` draw."""

    seed: int = _field(lo=0)
    radius: int = _field(2, lo=0)
    terms: int = _field(4, lo=1)
    amplitude: float = _field(0.1, above=0)


@dataclass(frozen=True)
class TorusModule:
    """A connection, n potentials or a random draw, on A_theta^q (cut by ``proj`` if given)."""

    theta: torus.ThetaMatrix
    q: int
    connection: tuple | RandomConnection
    proj: ym.TorusMatrix | None


@dataclass(frozen=True)
class TorusYm:
    module: TorusModule
    # accepted and unused: the compatibility verdict is exact, not sampled
    seed: int = _field(0, lo=0)
    samples: int = _field(100, lo=1)


@dataclass(frozen=True)
class TorusMinimize:
    """The module's connection and the keyword arguments of ``yangmills.minimize``."""

    module: TorusModule
    max_iters: int = _field(10000, lo=1)
    grad_tol: float = _field(1e-8, above=0)


@dataclass(frozen=True)
class TorusProduct:
    first: TorusModule  # theta, q1, connection1
    second: TorusModule  # phi, q2, connection2
    # accepted and unused: the splitting verdicts are exact, not sampled
    seed: int = _field(0, lo=0)
    samples: int = _field(20, lo=1)
    tol: float = _field(1e-8, above=0)


@dataclass(frozen=True)
class TripleMatrices:
    """The arguments of ``finite.FiniteTriple``, each matrix a tuple of complex rows."""

    dim_h: int
    algebra_basis: tuple
    D: tuple
    gamma: tuple | None


@dataclass(frozen=True)
class TripleRef:
    """Where a finite triple comes from: at most one field set, none for the trivial triple."""

    case: tuple | None = None  # the (p, q, mu) of finite.matrix_case_triple, mu row-major
    path: str | None = None  # a file holding a triple payload, read by read_triple at run time
    payload: TripleMatrices | None = None


@dataclass(frozen=True)
class FiniteForms:
    triple: TripleRef
    classify: bool  # a top-level case: the report names its coupling class


@dataclass(frozen=True)
class FiniteProduct:
    t1: TripleRef
    t2: TripleRef
    # accepted and unused: the orthogonality verdict is exact, not sampled
    seed: int = _field(0, lo=0)
    samples: int = _field(100, lo=1)


@dataclass(frozen=True)
class Gamma:
    """The arguments of ``yangmills.gamma_constants``."""

    k: float = _field(above=0)
    l: float = _field(above=0)
    m: int = _field(lo=1)
    n: int = _field(lo=1)
    tr_d1: float = _field()
    tr_d2: float = _field()


@dataclass(frozen=True)
class Constants:
    gamma: Gamma | None
    n: int = _field(lo=1)


# -- readers -------------------------------------------------------------------
# A reader may return a partial spec once it has reported a diagnostic: such a
# spec is discarded, never run.


def _theta(parent, key):
    """``{n, entries}``, entries row-major; ``ThetaMatrix`` checks the skew-symmetry."""
    node = parent.object(key)
    n = None if node is None else node.int("n", lo=1)
    entries = None if node is None else node.items("entries", _Node.number, n and n * n)
    if n is None or entries is None:
        return None
    try:
        return torus.ThetaMatrix([entries[i * n : (i + 1) * n] for i in range(n)])
    except ValueError as exc:
        node.error(str(exc))
        return None


def _matrix(parent, key, theta, q, optional=False):
    """``{q, entries}``: q*q row-major elements, each a list of ``{r, re, im}`` terms."""
    node = parent.object(key, optional)
    if node is None:
        return None
    size = node.int("q", lo=1)
    if None not in (size, q) and size != q:
        node.error(f"must equal the rank {q}", "q")
    n = None if theta is None else theta.n

    def term(seq, i):
        rec = seq.object(i)
        if rec is None:
            return None
        r, re, im = rec.items("r", _Node.int, n), rec.number("re"), rec.number("im")
        try:
            torus.check_index(r or ())
        except IndexOutOfRange as exc:
            rec.error(str(exc), "r")
            return None
        return None if None in (r, re, im) else (tuple(r), complex(re, im))

    elems = node.items("entries", lambda seq, i: seq.items(i, term), size and size * size)
    if theta is None or elems is None or size != q:
        return None
    rows = [[torus.TorusElement(theta, dict(elems[i * q + j])) for j in range(q)] for i in range(q)]
    return ym.TorusMatrix(theta, rows)


def _module(node, theta_key, q_key, connection_key, proj_key=None) -> TorusModule:
    theta = _theta(node, theta_key)
    q = node.int(q_key, lo=1)
    conn = node.object(connection_key)
    which = None if conn is None else conn.choice("A", "random")
    connection = None
    if which == "A":
        n = None if theta is None else theta.n
        potentials = conn.items("A", lambda seq, i: _matrix(seq, i, theta, q), n)
        connection = None if potentials is None else tuple(potentials)
    elif which == "random":
        random = conn.object("random")
        connection = None if random is None else _read_fields(RandomConnection, random)
    proj = None if proj_key is None else _matrix(node, proj_key, theta, q, optional=True)
    return TorusModule(theta, q, connection, proj)


def _pairs(parent, key, length, optional=False):
    """A list of ``length`` finite ``[re, im]`` pairs, as a tuple of complex."""
    pairs = parent.items(key, lambda seq, i: seq.items(i, _Node.number, 2), length, optional)
    return None if pairs is None else tuple(complex(re, im) for re, im in pairs)


def _case(parent, key):
    """``{p, q, mu}``, mu a row-major list of p*q [re, im] pairs."""
    node = parent.object(key)
    if node is None:
        return None
    p, q = node.int("p", lo=1), node.int("q", lo=1)
    mu = _pairs(node, "mu", None if p is None or q is None else p * q)
    return None if mu is None else (p, q, mu)


def _triple_matrices(node) -> TripleMatrices:
    """``{dim_h, algebra_basis, D, gamma}``, each matrix dim_h^2 row-major [re, im] pairs.

    ``gamma`` may be absent or null (an odd triple).
    """
    d = node.int("dim_h", lo=1)

    def matrix(parent, key, optional=False):
        flat = _pairs(parent, key, d and d * d, optional)
        return None if flat is None or d is None else tuple(flat[i * d : (i + 1) * d] for i in range(d))

    basis = node.items("algebra_basis", matrix)
    basis = None if basis is None else tuple(basis)
    return TripleMatrices(d, basis, matrix(node, "D"), matrix(node, "gamma", optional=True))


def _triple(parent, key):
    """Exactly one of ``case``, ``path``, ``payload`` (an inline triple) or ``"trivial": true``."""
    node = parent.object(key)
    which = None if node is None else node.choice("case", "path", "payload", "trivial")
    if which == "case":
        return TripleRef(case=_case(node, "case"))
    if which == "path":
        return TripleRef(path=node.read("path", lambda v: isinstance(v, str), "a string"))
    if which == "payload":
        payload = node.object("payload")
        return TripleRef(payload=None if payload is None else _triple_matrices(payload))
    if which == "trivial":
        node.read("trivial", lambda v: v is True, "true")
    return TripleRef()


def _finite_forms(node) -> FiniteForms | None:
    which = node.choice("triple", "case")
    if which == "case":
        return FiniteForms(TripleRef(case=_case(node, "case")), classify=True)
    return None if which is None else FiniteForms(_triple(node, "triple"), classify=False)


def _constants(node) -> Constants:
    gamma = node.object("gamma", optional=True)
    gamma = None if gamma is None else _read_fields(Gamma, gamma)
    return _read_fields(Constants, node, gamma=gamma)


_READERS = {
    "torus_ym": lambda node: _read_fields(
        TorusYm, node, module=_module(node, "theta", "q", "connection", "proj")
    ),
    "torus_minimize": lambda node: _read_fields(
        TorusMinimize, node, module=_module(node, "theta", "q", "connection", "proj")
    ),
    "torus_product": lambda node: _read_fields(
        TorusProduct,
        node,
        first=_module(node, "theta", "q1", "connection1"),
        second=_module(node, "phi", "q2", "connection2"),
    ),
    "finite_forms": _finite_forms,
    "finite_product": lambda node: _read_fields(
        FiniteProduct, node, t1=_triple(node, "t1"), t2=_triple(node, "t2")
    ),
    "constants": _constants,
}
KINDS = tuple(_READERS)


def _read(obj: dict, path: str, reader):
    """``reader`` of the object at ``path``; ``ConfigInvalid`` if a field is bad or unknown."""
    diags, nodes = [], []
    result = reader(_Node(obj, path, diags, nodes))
    for node in nodes:
        if isinstance(node.value, dict):
            for key in node.value:
                if key not in node.used:
                    node.error("unknown field", key)
    if diags:
        raise ConfigInvalid(diags)
    return result


def _experiment(root):
    kind = root.read("kind", lambda v: v in KINDS, f"one of {', '.join(KINDS)}")
    root.read("output_path", lambda v: v is None or isinstance(v, str), "a string")
    payload = root.object("payload")
    return None if kind is None or payload is None else _READERS[kind](payload)


def read_triple(doc, source: str) -> TripleMatrices:
    """The triple payload ``doc`` read from the file ``source``; diagnostics at ``<source>:/...``."""
    if not isinstance(doc, dict):
        raise ConfigInvalid([Diagnostic("error", source, "must be an object")])
    return _read(doc, f"{source}:", _triple_matrices)


@dataclass
class ExperimentConfig:
    """One experiment: kind, payload as given, and the spec read from it (or ``ConfigInvalid``)."""

    kind: str
    payload: dict
    output_path: str | None = None
    spec: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        doc = {"kind": self.kind, "payload": self.payload, "output_path": self.output_path}
        self.spec = _read(doc, "", _experiment)


def load(config_text: str) -> dict:
    """The JSON object of a config document; ``ConfigInvalid`` if it is none."""
    try:
        doc = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid([Diagnostic("error", "", f"not valid JSON: {exc}")]) from None
    if not isinstance(doc, dict):
        raise ConfigInvalid([Diagnostic("error", "", "config must be a JSON object")])
    return doc


def from_document(doc: dict) -> ExperimentConfig:
    """The experiment of a loaded document, whose other top-level keys are unknown fields."""
    known = ("kind", "payload", "output_path")
    diags = [Diagnostic("error", f"/{key}", "unknown field") for key in doc if key not in known]
    try:
        config = ExperimentConfig(doc.get("kind"), doc.get("payload"), doc.get("output_path"))
    except ConfigInvalid as exc:
        diags += exc.diagnostics
    if diags:
        raise ConfigInvalid(diags)
    return config


def parse(config_text: str) -> ExperimentConfig:
    return from_document(load(config_text))


def validate(config_text: str) -> list[Diagnostic]:
    """Diagnostics for a config document; empty iff ``parse`` accepts it."""
    try:
        parse(config_text)
    except ConfigInvalid as exc:
        return exc.diagnostics
    return []
