"""Built-in problem instances and instance-file IO.

Instance files are JSON objects with ``p_suv`` and ``q_suv`` joint-pmf
records (axes in declared order; row-major probs), an optional ``distortion``
table with ``d_max``, and a free-form ``labels`` map.  This module owns the
format: ``save_instance`` is its one writer and ``read_record`` its one
reader.  Every loader and validator of instance files parses them through
``read_record``, and its errors name the file and the field.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .probcore import JointPmf
from .regions import HypothesisPair

__all__ = [
    "example1_pair",
    "example2_pair",
    "example2_taci_joint",
    "zero_rate_binary_pair",
    "counterexample_pair",
    "hamming",
    "LAWS",
    "read_record",
    "pair_from_record",
    "load_instance",
    "save_instance",
    "conditional_s_given_rest",
]


def hamming(k: int) -> np.ndarray:
    return 1.0 - np.eye(k)


def example1_pair(p: float, q: float) -> HypothesisPair:
    """Binary cascade instance: U uniform, S = U + Ber(q), V = S + Ber(p) under
    the null; under the alternate V is an independent fair coin."""
    pj = np.zeros((2, 2, 2))
    qj = np.zeros((2, 2, 2))
    for s, u, v in itertools.product(range(2), repeat=3):
        pu = 0.5
        ps_u = 1.0 - q if s == u else q
        pv_s = 1.0 - p if v == s else p
        pj[s, u, v] = pu * ps_u * pv_s
        qj[s, u, v] = pu * ps_u * 0.5
    axes = (("S", 2), ("U", 2), ("V", 2))
    return HypothesisPair(JointPmf(axes, pj), JointPmf(axes, qj),
                          distortion=hamming(2), d_max=1.0)


def _example2_arrays():
    p_su = 0.125 * np.array(
        [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], dtype=float
    )
    p_y_u = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float)
    p_suy = np.einsum("su,uy->suy", p_su, p_y_u)
    p_y = p_suy.sum(axis=(0, 1))
    q_suy = np.einsum("su,y->suy", p_su, p_y)
    return p_suy, q_suy


def example2_pair() -> HypothesisPair:
    """Perfect-privacy instance: 4-ary (S, U) in correlated blocks, Y the
    parity of U under the null, Y independent under the alternate."""
    p_suy, q_suy = _example2_arrays()
    axes = (("S", 4), ("U", 4), ("Y", 2))
    return HypothesisPair(JointPmf(axes, p_suy), JointPmf(axes, q_suy),
                          distortion=hamming(4), d_max=1.0)


def example2_taci_joint() -> JointPmf:
    """Null law of the perfect-privacy instance with an explicit trivial Z axis."""
    p_suy, _ = _example2_arrays()
    axes = (("S", 4), ("U", 4), ("Y", 2), ("Z", 1))
    return JointPmf(axes, p_suy[..., None])


def zero_rate_binary_pair() -> HypothesisPair:
    """Binary zero-rate test instance with S = U and noisy V observations:
    P(U=0) = 0.5 and V = U + Ber(0.2) under the null, Q(U=0) = 0.8 and
    V = U + Ber(0.35) under the alternate."""
    pj = np.zeros((2, 2, 2))
    qj = np.zeros((2, 2, 2))
    for joint, u0, flip in ((pj, 0.5, 0.2), (qj, 0.8, 0.35)):
        for u, v in itertools.product(range(2), repeat=2):
            pu = u0 if u == 0 else 1.0 - u0
            pv = 1.0 - flip if v == u else flip
            joint[u, u, v] = pu * pv
    axes = (("S", 2), ("U", 2), ("V", 2))
    return HypothesisPair(JointPmf(axes, pj), JointPmf(axes, qj),
                          distortion=hamming(2), d_max=1.0)


def counterexample_pair() -> HypothesisPair:
    """Testing-against-independence instance with H_P(S|U,V) < H_P(S|V):
    U a fair coin, S = U + Ber(0.15), V = U + Ber(0.25); the alternate
    draws V independently with the same marginal."""
    flip_s, flip_v = 0.15, 0.25
    pj = np.zeros((2, 2, 2))
    for s, u, v in itertools.product(range(2), repeat=3):
        pu = 0.5
        ps = 1.0 - flip_s if s == u else flip_s
        pv = 1.0 - flip_v if v == u else flip_v
        pj[s, u, v] = pu * ps * pv
    p_v = pj.sum(axis=(0, 1))
    p_su = pj.sum(axis=2)
    qj = np.einsum("su,v->suv", p_su, p_v)
    axes = (("S", 2), ("U", 2), ("V", 2))
    return HypothesisPair(JointPmf(axes, pj), JointPmf(axes, qj),
                          distortion=hamming(2), d_max=1.0)


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

def _law_record(joint: JointPmf) -> dict:
    return {"axes": [{"name": n, "size": s} for n, s in joint.axes],
            "probs": [float(x) for x in joint.probs.ravel()]}


def save_instance(pair: HypothesisPair, path: str, labels: dict | None = None) -> None:
    rec = {"labels": labels or {}, "p_suv": _law_record(pair.p), "q_suv": _law_record(pair.q)}
    if pair.distortion is not None:
        rec["distortion"] = [[float(x) for x in row] for row in pair.distortion]
        rec["d_max"] = float(pair.d_max)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(rec, fh, indent=2)
        fh.write("\n")


# the two joint-pmf records of an instance file: the null and the alternate law
LAWS = ("p_suv", "q_suv")


def read_record(path: str) -> dict:
    """The JSON object of the instance file at ``path``, each law's ``axes``
    as (name, size) pairs and its ``probs`` shaped to them.  A parse error
    (with line and column), a missing field or probs that do not fill the axes
    raise ValueError naming the file and the field; the mass is left to
    ``JointPmf``."""
    with open(path, encoding="utf-8") as fh:
        try:
            rec = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"parse error in {path} at line {e.lineno} "
                             f"column {e.colno}: {e.msg}") from e
    for key in LAWS:
        law = rec.get(key) if isinstance(rec, dict) else None
        if not isinstance(law, dict):
            raise ValueError(f"{path}: missing field {key!r}")
        for sub in ("axes", "probs"):
            if sub not in law:
                raise ValueError(f"{path}: field {key!r} missing {sub!r}")
        try:
            law["axes"] = tuple((a["name"], int(a["size"])) for a in law["axes"])
            law["probs"] = np.asarray(law["probs"], dtype=float).reshape(
                [size for _, size in law["axes"]])
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"{path}: field {key!r} has malformed axes or probs: {e!r}") from e
    return rec


def pair_from_record(rec: dict) -> HypothesisPair:
    """The hypothesis pair of a record that ``read_record`` returned.  A law,
    distortion table or ``d_max`` that cannot be read raises ValueError
    naming its field."""
    def field(key, read):
        try:
            return read()
        except (TypeError, ValueError) as e:
            raise ValueError(f"field {key!r}: {e}") from e

    laws = [field(key, lambda: JointPmf(rec[key]["axes"], rec[key]["probs"])) for key in LAWS]
    distortion, d_max = rec.get("distortion"), rec.get("d_max")
    if distortion is not None:
        distortion = field("distortion", lambda: np.asarray(distortion, float))
    if d_max is not None:
        d_max = field("d_max", lambda: float(d_max))
    return HypothesisPair(*laws, distortion=distortion, d_max=d_max)


def load_instance(path: str) -> HypothesisPair:
    """The hypothesis pair of the instance file at ``path``; every ValueError
    names the file."""
    rec = read_record(path)
    try:
        return pair_from_record(rec)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def conditional_s_given_rest(joint: JointPmf) -> np.ndarray:
    """Conditional of S given all remaining axes, indexed (rest..., S);
    cells with zero conditioning mass fall back to the uniform row."""
    names = joint.names
    rest = tuple(n for n in names if n != "S")
    arr = joint.marginal_array(rest + ("S",))
    denom = arr.sum(axis=-1, keepdims=True)
    ns = arr.shape[-1]
    out = np.divide(arr, denom, out=np.full_like(arr, 1.0 / ns), where=denom > 0)
    return out
