"""Experiment configs: schema, validation diagnostics, parsing.

One JSON document describes one experiment.  ``validate`` returns a list of
diagnostics (empty iff the document is well-formed and satisfies the domain
invariants); ``parse`` raises ``ConfigInvalid`` carrying the same list.  The
schema document shipped at ``config_schema.json`` is the versioned reference
for external tooling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

from .errors import ConfigInvalid

SCHEMA_VERSION = "1"

KINDS = (
    "torus_ym",
    "torus_minimize",
    "torus_product",
    "finite_forms",
    "finite_product",
    "constants",
)


@dataclass
class Diagnostic:
    severity: str
    path: str
    message: str

    def to_payload(self):
        return {"severity": self.severity, "path": self.path, "message": self.message}


@dataclass
class ExperimentConfig:
    kind: str
    payload: dict
    output_path: str | None = None


def schema() -> dict:
    with resources.files("ncym").joinpath("config_schema.json").open("r") as fh:
        return json.load(fh)


# -- field-level validators --------------------------------------------------


def _err(diags, path, message):
    diags.append(Diagnostic("error", path, message))


def _check_theta(diags, obj, path):
    if not isinstance(obj, dict):
        _err(diags, path, "theta must be an object with fields n, entries")
        return None
    n = obj.get("n")
    entries = obj.get("entries")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        _err(diags, path, "theta.n must be a positive integer")
        return None
    if not isinstance(entries, list) or len(entries) != n * n or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in entries
    ):
        _err(diags, path, f"theta.entries must be a flat row-major list of {n * n} numbers")
        return None
    ok = True
    for i, v in enumerate(entries):
        if isinstance(v, float) and not math.isfinite(v):
            _err(diags, f"{path}/entries/{i}", f"theta entries must be finite, got {v}")
            ok = False
    for j in range(n):
        if entries[j * n + j] != 0:
            _err(diags, path, f"theta diagonal entry ({j},{j}) must be exactly zero")
            ok = False
        for k in range(j + 1, n):
            if entries[j * n + k] != -entries[k * n + j]:
                _err(diags, path, f"theta must be skew-symmetric, violated at ({j},{k})")
                ok = False
    return (n, entries) if ok else None


def _check_element_payload(diags, payload, n, path):
    if not isinstance(payload, list):
        _err(diags, path, "element must be a list of {r, re, im} records")
        return
    for i, rec in enumerate(payload):
        if not isinstance(rec, dict) or not {"r", "re", "im"} <= set(rec):
            _err(diags, f"{path}/{i}", "record must carry fields r, re, im")
            continue
        r = rec["r"]
        if not isinstance(r, list) or (n is not None and len(r) != n) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in r
        ):
            _err(diags, f"{path}/{i}/r", f"multi-index must be a list of {n} integers")


def _check_matrix_payload(diags, payload, n, path, expect_q=None):
    if not isinstance(payload, dict) or "q" not in payload or "entries" not in payload:
        _err(diags, path, "matrix must be an object with fields q, entries")
        return None
    q = payload["q"]
    if not isinstance(q, int) or isinstance(q, bool) or q < 1:
        _err(diags, f"{path}/q", "q must be a positive integer")
        return None
    if expect_q is not None and q != expect_q:
        _err(diags, f"{path}/q", f"q must equal {expect_q}")
    entries = payload["entries"]
    if not isinstance(entries, list) or len(entries) != q * q:
        _err(diags, f"{path}/entries", f"expected {q * q} row-major element payloads")
        return None
    for i, e in enumerate(entries):
        _check_element_payload(diags, e, n, f"{path}/entries/{i}")
    return q


def _check_connection_block(diags, obj, n, q, path):
    if not isinstance(obj, dict):
        _err(diags, path, "connection must be an object with field A or random")
        return
    has_a = "A" in obj
    has_random = "random" in obj
    if has_a == has_random:
        _err(diags, path, "connection must carry exactly one of A, random")
        return
    if has_a:
        a = obj["A"]
        if not isinstance(a, list) or (n is not None and len(a) != n):
            _err(diags, f"{path}/A", f"expected {n} potential matrices")
            return
        for j, m in enumerate(a):
            _check_matrix_payload(diags, m, n, f"{path}/A/{j}", expect_q=q)
    else:
        r = obj["random"]
        if not isinstance(r, dict):
            _err(diags, f"{path}/random", "random must be an object")
            return
        if "seed" not in r or not isinstance(r["seed"], int) or isinstance(r["seed"], bool):
            _err(diags, f"{path}/random/seed", "random payload requires an explicit integer seed")
        radius = r.get("radius", 2)
        if not isinstance(radius, int) or isinstance(radius, bool) or radius < 0:
            _err(diags, f"{path}/random/radius", "radius must be a nonnegative integer")
        amp = r.get("amplitude", 0.1)
        if not isinstance(amp, (int, float)) or isinstance(amp, bool) or amp <= 0:
            _err(diags, f"{path}/random/amplitude", "amplitude must be positive")


def _check_positive_number(diags, obj, key, path, default_ok=True):
    if key not in obj:
        if not default_ok:
            _err(diags, f"{path}/{key}", "missing required positive number")
        return
    v = obj[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool) or v <= 0:
        _err(diags, f"{path}/{key}", "must be a positive number")


def _check_seed(diags, obj, path, required=False):
    if "seed" not in obj:
        if required:
            _err(diags, f"{path}/seed", "explicit integer seed required")
        return
    if not isinstance(obj["seed"], int) or isinstance(obj["seed"], bool):
        _err(diags, f"{path}/seed", "seed must be an integer")


def _check_triple_ref(diags, obj, path):
    if not isinstance(obj, dict):
        _err(diags, path, "triple reference must be an object")
        return
    keys = [k for k in ("path", "payload", "case", "trivial") if k in obj]
    if len(keys) != 1:
        _err(diags, path, "exactly one of path, payload, case, trivial required")
        return
    if "path" in obj and not isinstance(obj["path"], str):
        _err(diags, f"{path}/path", "path must be a string")
    if "case" in obj:
        case = obj["case"]
        if not isinstance(case, dict):
            _err(diags, f"{path}/case", "case must be an object with p, q, mu")
            return
        p = case.get("p")
        q = case.get("q")
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            _err(diags, f"{path}/case/p", "p must be a positive integer")
        if not isinstance(q, int) or isinstance(q, bool) or q < 1:
            _err(diags, f"{path}/case/q", "q must be a positive integer")
        mu = case.get("mu")
        if not isinstance(mu, list) or (
            isinstance(p, int) and isinstance(q, int) and len(mu) != p * q
        ):
            _err(diags, f"{path}/case/mu", "mu must be a row-major list of p*q [re, im] pairs")
        elif not all(
            isinstance(x, list) and len(x) == 2 and all(isinstance(v, (int, float)) for v in x)
            for x in mu
        ):
            _err(diags, f"{path}/case/mu", "mu entries must be [re, im] number pairs")
    if "payload" in obj and not isinstance(obj["payload"], dict):
        _err(diags, f"{path}/payload", "inline triple payload must be an object")


# -- kind-level validation ----------------------------------------------------


def _validate_torus_common(diags, payload, path):
    theta = _check_theta(diags, payload.get("theta"), f"{path}/theta")
    n = theta[0] if theta else None
    q = payload.get("q")
    if not isinstance(q, int) or isinstance(q, bool) or q < 1:
        _err(diags, f"{path}/q", "q must be a positive integer")
        q = None
    if "connection" not in payload:
        _err(diags, f"{path}/connection", "missing connection block")
    else:
        _check_connection_block(diags, payload["connection"], n, q, f"{path}/connection")
    if "proj" in payload and payload["proj"] is not None:
        _check_matrix_payload(diags, payload["proj"], n, f"{path}/proj", expect_q=q)
    _check_seed(diags, payload, path)
    if "samples" in payload:
        v = payload["samples"]
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            _err(diags, f"{path}/samples", "samples must be a positive integer")
    tols = payload.get("tolerances")
    if tols is not None:
        if not isinstance(tols, dict):
            _err(diags, f"{path}/tolerances", "tolerances must be an object")
        else:
            for key in tols:
                _check_positive_number(diags, tols, key, f"{path}/tolerances")


def _validate_payload(diags, kind, payload, path="/payload"):
    if kind in ("torus_ym", "torus_minimize"):
        _validate_torus_common(diags, payload, path)
        if kind == "torus_minimize":
            if "max_iters" in payload:
                v = payload["max_iters"]
                if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                    _err(diags, f"{path}/max_iters", "max_iters must be a positive integer")
            for key in ("grad_tol", "armijo", "shrink", "initial_step"):
                _check_positive_number(diags, payload, key, path)
    elif kind == "torus_product":
        for side, tkey, qkey, ckey in (
            ("1", "theta", "q1", "connection1"),
            ("2", "phi", "q2", "connection2"),
        ):
            theta = _check_theta(diags, payload.get(tkey), f"{path}/{tkey}")
            n = theta[0] if theta else None
            q = payload.get(qkey)
            if not isinstance(q, int) or isinstance(q, bool) or q < 1:
                _err(diags, f"{path}/{qkey}", "rank must be a positive integer")
                q = None
            if ckey not in payload:
                _err(diags, f"{path}/{ckey}", "missing connection block")
            else:
                _check_connection_block(diags, payload[ckey], n, q, f"{path}/{ckey}")
        _check_seed(diags, payload, path)
        _check_positive_number(diags, payload, "tol", path)
    elif kind == "finite_forms":
        keys = [k for k in ("triple", "case") if k in payload]
        if len(keys) != 1:
            _err(diags, path, "exactly one of triple, case required")
        elif "triple" in payload:
            _check_triple_ref(diags, payload["triple"], f"{path}/triple")
        else:
            _check_triple_ref(diags, {"case": payload["case"]}, path)
    elif kind == "finite_product":
        for key in ("t1", "t2"):
            if key not in payload:
                _err(diags, f"{path}/{key}", "missing triple reference")
            else:
                _check_triple_ref(diags, payload[key], f"{path}/{key}")
        _check_seed(diags, payload, path, required=True)
        if "samples" in payload:
            v = payload["samples"]
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                _err(diags, f"{path}/samples", "samples must be a positive integer")
    elif kind == "constants":
        n = payload.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            _err(diags, f"{path}/n", "n must be a positive integer")
        gamma = payload.get("gamma")
        if gamma is not None:
            if not isinstance(gamma, dict):
                _err(diags, f"{path}/gamma", "gamma must be an object")
            else:
                _check_positive_number(diags, gamma, "k", f"{path}/gamma", default_ok=False)
                _check_positive_number(diags, gamma, "l", f"{path}/gamma", default_ok=False)
                for key in ("m", "n"):
                    v = gamma.get(key)
                    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                        _err(diags, f"{path}/gamma/{key}", "rank must be a positive integer")
                for key in ("tr_d1", "tr_d2"):
                    v = gamma.get(key)
                    if not isinstance(v, (int, float)) or isinstance(v, bool):
                        _err(diags, f"{path}/gamma/{key}", "must be a number")


def validate_obj(obj) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    if not isinstance(obj, dict):
        _err(diags, "", "config must be a JSON object")
        return diags
    kind = obj.get("kind")
    if kind not in KINDS:
        _err(diags, "/kind", f"kind must be one of {', '.join(KINDS)}")
        return diags
    if "output_path" in obj and obj["output_path"] is not None and not isinstance(obj["output_path"], str):
        _err(diags, "/output_path", "output_path must be a string")
    payload = obj.get("payload")
    if not isinstance(payload, dict):
        _err(diags, "/payload", "missing payload object")
        return diags
    _validate_payload(diags, kind, payload)
    return diags


def validate(config_text: str) -> list[Diagnostic]:
    """Diagnostics for a config document; empty iff it parses and validates."""
    try:
        obj = json.loads(config_text)
    except json.JSONDecodeError as exc:
        return [Diagnostic("error", "", f"not valid JSON: {exc}")]
    return validate_obj(obj)


def parse(config_text: str) -> ExperimentConfig:
    diags = validate(config_text)
    if diags:
        raise ConfigInvalid(diags)
    obj = json.loads(config_text)
    return ExperimentConfig(obj["kind"], obj["payload"], obj.get("output_path"))
