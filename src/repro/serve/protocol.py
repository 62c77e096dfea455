"""Wire format and job identity for the evaluation daemon.

One protocol serves both transports:

* **UNIX socket** — newline-delimited JSON requests/responses
  (``{"op": "submit", "spec": {...}}\\n``);
* **HTTP mirror** — the same operations under ``POST /submit``,
  ``GET /jobs``, ``GET /jobs/<id>``, ``GET /stats``, ``GET /healthz``.

Job identity is content-addressed: :func:`job_key` hashes the
canonicalised ``(attack spec, execution policy)`` pair — the exact
inputs a cell result is a pure function of — so two clients asking the
same question share one simulation, one journal record, and one cache
entry.  The key doubles as the checkpoint-journal cell id
(``serve/<key>``), which is what makes daemon restarts resume
in-flight jobs byte-identically: the journal *is* the cache's durable
layer.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Tuple

from repro.core.channels import ChannelType
from repro.core.variants import ALL_VARIANTS
from repro.errors import HarnessError
from repro.harness.parallel import CellSpec
from repro.harness.runner import ExecutionPolicy

#: Spec fields a client may submit, with defaults matching
#: :class:`repro.harness.parallel.CellSpec`.
_SPEC_DEFAULTS: Dict[str, Any] = {
    "kind": "experiment",
    "variant": "",
    "channel": "timing-window",
    "predictor": "lvp",
    "n_runs": 100,
    "seed": 0,
    "exponent": None,
}

#: Execution-policy names a job may request.
POLICY_NAMES = ("compat", "robust")


def normalize_spec(raw: Dict[str, Any]) -> Dict[str, Any]:
    """Validate and canonicalise a submitted job spec.

    Returns a dict holding *every* spec field (defaults filled in), so
    hashing it is stable regardless of which fields the client spelled
    out.

    Raises:
        HarnessError: Unknown fields, unknown variant/channel, or
            out-of-range parameters.
    """
    unknown = sorted(set(raw) - set(_SPEC_DEFAULTS) - {"policy"})
    if unknown:
        raise HarnessError(f"unknown spec field(s): {unknown}")
    spec = {**_SPEC_DEFAULTS, **{k: v for k, v in raw.items()
                                 if k != "policy"}}
    if spec["kind"] not in ("experiment", "rsa"):
        raise HarnessError(f"unknown job kind {spec['kind']!r}")
    if spec["kind"] == "experiment":
        names = [variant.name for variant in ALL_VARIANTS]
        if spec["variant"] not in names:
            raise HarnessError(
                f"unknown attack variant {spec['variant']!r}; "
                f"choose from {names}"
            )
        channels = [channel.value for channel in ChannelType]
        if spec["channel"] not in channels:
            raise HarnessError(
                f"unknown channel {spec['channel']!r}; "
                f"choose from {channels}"
            )
        if spec["predictor"] not in ("lvp", "vtage", "none"):
            raise HarnessError(
                f"unknown predictor {spec['predictor']!r}"
            )
    n_runs = spec["n_runs"]
    if not isinstance(n_runs, int) or n_runs < 1:
        raise HarnessError(f"n_runs must be a positive int, got {n_runs!r}")
    if not isinstance(spec["seed"], int):
        raise HarnessError(f"seed must be an int, got {spec['seed']!r}")
    return spec


def normalize_policy(raw: Optional[str]) -> str:
    """Validate a requested execution-policy name (default compat)."""
    policy = raw or "compat"
    if policy not in POLICY_NAMES:
        raise HarnessError(
            f"unknown policy {policy!r}; choose from {POLICY_NAMES}"
        )
    return policy


def execution_policy(name: str) -> ExecutionPolicy:
    """The :class:`ExecutionPolicy` a validated policy name stands for."""
    return ExecutionPolicy.robust() if name == "robust" else ExecutionPolicy()


def job_key(spec: Dict[str, Any], policy: str) -> str:
    """Content-addressed identity of one job.

    The digest covers the full normalised spec (program + machine
    configuration, trial counts, seed) and the execution policy — the
    complete input set of the pure cell function — so identical
    questions collide onto one cache entry and differing ones cannot.
    """
    material = json.dumps(
        {"spec": spec, "policy": policy}, sort_keys=True
    )
    return hashlib.blake2b(material.encode(), digest_size=16).hexdigest()


def spec_to_cell(spec: Dict[str, Any], key: str) -> CellSpec:
    """The :class:`CellSpec` executing one job (journal id from key)."""
    return CellSpec(
        cell_id=f"serve/{key}",
        kind=str(spec["kind"]),
        variant=str(spec["variant"]),
        channel=str(spec["channel"]) if spec["kind"] == "experiment" else "",
        predictor=str(spec["predictor"]),
        n_runs=int(spec["n_runs"]),
        seed=int(spec["seed"]),
        exponent=spec["exponent"],
    )


# ----------------------------------------------------------------------
# JSON-lines framing
# ----------------------------------------------------------------------

#: Upper bound on one request line; a client that exceeds it is
#: misbehaving (or not speaking the protocol at all).
MAX_LINE_BYTES = 1 << 20


def encode_message(payload: Dict[str, Any]) -> bytes:
    """One newline-terminated JSON message."""
    return json.dumps(payload, sort_keys=True).encode() + b"\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one message line.

    Raises:
        HarnessError: Malformed JSON or a non-object message.
    """
    if len(line) > MAX_LINE_BYTES:
        raise HarnessError("message exceeds maximum line length")
    try:
        payload = json.loads(line.decode())
    except (ValueError, UnicodeDecodeError) as error:
        raise HarnessError(f"malformed message: {error}") from None
    if not isinstance(payload, dict):
        raise HarnessError("message must be a JSON object")
    return payload


def error_response(message: str, **extra: Any) -> Dict[str, Any]:
    """A uniform error payload."""
    return {"ok": False, "error": message, **extra}


def parse_http_request(
    data: bytes,
) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse a minimal HTTP/1.1 request: (method, path, headers, body).

    Only what the mirror needs: request line, headers,
    ``Content-Length``-delimited body.  Anything else is a protocol
    error.

    Raises:
        HarnessError: On malformed requests.
    """
    head, sep, body = data.partition(b"\r\n\r\n")
    if not sep:
        raise HarnessError("malformed HTTP request: no header terminator")
    lines = head.split(b"\r\n")
    try:
        method, path, _version = lines[0].decode().split(" ", 2)
    except (ValueError, UnicodeDecodeError):
        raise HarnessError("malformed HTTP request line") from None
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return method.upper(), path, headers, body


def http_response(
    status: int,
    payload: Dict[str, Any],
    reason: Optional[str] = None,
) -> bytes:
    """A JSON HTTP response."""
    reasons = {200: "OK", 202: "Accepted", 400: "Bad Request",
               404: "Not Found", 429: "Too Many Requests",
               503: "Service Unavailable"}
    body = json.dumps(payload, sort_keys=True).encode() + b"\n"
    head = (
        f"HTTP/1.1 {status} {reason or reasons.get(status, 'Status')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode() + body
