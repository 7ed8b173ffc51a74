"""The descriptive class names and their base captions, plus optional LLM
rephrasing over HTTP.

Each class owns one fixed template sentence; a caption is the concatenation
of the templates for the assigned classes in canonical order.  Rephrasing is
strictly optional: it calls a chat-completion-style JSON endpoint and the
pipeline falls back to the base caption whenever the service is unavailable.
"""

from __future__ import annotations

import enum
import json
import os
import time

from .errors import EmptyCompletion, InvalidConfig, ProtocolError, Unavailable


class TimeSeriesClass(enum.Enum):
    """The 21 descriptive classes, in canonical display order.  Each row
    gives a class's name, its value and its one template sentence, the
    member's ``caption``.  Rising and Smooth are the reference wordings; the
    rest follow the same surface pattern."""

    def __new__(cls, value: str, caption: str):
        member = object.__new__(cls)
        member._value_, member.caption = value, caption
        return member

    RISING = "Rising", "The signal has a rising trend."
    FALLING = "Falling", "The signal has a falling trend."
    CONSTANT = "Constant", "The signal stays almost constant."
    CONVEX = "Convex", "The signal has a convex shape."
    CONCAVE = "Concave", "The signal has a concave shape."
    LINEAR = "Linear", "The signal follows a linear trend."
    NONLINEAR = "Nonlinear", "The signal follows a nonlinear trend."
    SMOOTH = "Smooth", "The signal has a smooth shape."
    NOISY = "Noisy", "The signal contains a lot of noise."
    SIMPLE = "Simple", "The signal has a simple shape."
    COMPLEX = "Complex", "The signal shows complex behavior."
    SPIKY = "Spiky", "The signal contains sudden spikes in value."
    DROPOUT = "Dropout", "The signal contains sudden drops in value."
    PERIODIC = "Periodic", "The signal shows periodic behavior."
    APERIODIC = "Aperiodic", "The signal shows no clear periodicity."
    SYMMETRY = "Symmetry", "The signal is symmetric about its center."
    ASYMMETRY = "Asymmetry", "The signal is asymmetric about its center."
    STEP = "Step", "The signal contains step-like level changes."
    NOSTEP = "NoStep", "The signal contains no step-like level changes."
    HIGH_AMPLITUDE = "HighAmplitude", "The signal has a high amplitude."
    LOW_AMPLITUDE = "LowAmplitude", "The signal has a low amplitude."

    @classmethod
    def from_name(cls, name: str) -> "TimeSeriesClass":
        try:
            return cls(name)
        except ValueError:
            raise InvalidConfig(f"unknown time-series class: {name!r}") from None


#: Canonical ordering index, used to sort class sets for display and JSON.
CLASS_ORDER = {member: i for i, member in enumerate(TimeSeriesClass)}


def sorted_classes(classes) -> list[TimeSeriesClass]:
    """Classes in canonical display order."""
    return sorted(classes, key=lambda c: CLASS_ORDER[c])


#: Each class's template sentence, in canonical order.
BASE_CAPTIONS = {member: member.caption for member in TimeSeriesClass}

#: Caption used when no class rule fired at all.
NO_SALIENT_CAPTION = "The signal has no salient characteristics."

#: Fixed instruction sent ahead of the base text when rephrasing.
REPHRASE_INSTRUCTION = (
    "Rephrase the following description of a time-series signal into fluent "
    "prose without adding or removing characteristics:"
)

ENDPOINT_ENV = "TACO_LLM_ENDPOINT"
MODEL_ENV = "TACO_LLM_MODEL"

#: Default cap on concurrent rephrase calls.
DEFAULT_IN_FLIGHT = 4

#: Seconds one rephrase call may take before it counts as unavailable: the
#: socket timeout of each operation, and the deadline for the whole reply.
REPHRASE_TIMEOUT_S = 30.0

#: Largest reply body a rephrase call accepts, in bytes; a completion of one
#: caption is a few hundred.
MAX_REPLY_BYTES = 1 << 20


def base_caption(classes) -> str:
    """Concatenate the class templates in canonical order.

    The input may be any iterable of classes; insertion order never matters.
    An empty class set yields the fixed no-salient-characteristics sentence.
    """
    ordered = sorted_classes(set(classes))
    if not ordered:
        return NO_SALIENT_CAPTION
    return " ".join(BASE_CAPTIONS[cls] for cls in ordered)


def classes_from_caption(text: str) -> set[TimeSeriesClass]:
    """Recover the class set from a base caption (round-trip check).

    Templates are unique complete sentences, so membership is a substring
    test per template.
    """
    return {cls for cls, template in BASE_CAPTIONS.items() if template in text}


def _extract_completion(body: dict) -> str:
    try:
        choices = body["choices"]
        first = choices[0]
    except (KeyError, IndexError, TypeError) as exc:
        raise ProtocolError(f"response body has no completion: {exc}") from exc
    if isinstance(first, dict):
        message = first.get("message")
        if isinstance(message, dict) and isinstance(message.get("content"), str):
            return message["content"]
        if isinstance(first.get("text"), str):
            return first["text"]
    raise ProtocolError("completion entry has neither message.content nor text")


def resolve_endpoint(endpoint: str | None) -> str:
    """The given endpoint, else ``$TACO_LLM_ENDPOINT``; :class:`Unavailable`
    when neither is set."""
    endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
    if not endpoint:
        raise Unavailable(f"no rephrase endpoint configured ({ENDPOINT_ENV} unset)")
    return endpoint


def rephrase(text: str, endpoint: str | None = None, model: str | None = None) -> str:
    """Ask a chat-completion endpoint to rephrase a base caption.

    The request pins temperature 0 and seed 0 so endpoints that honor them
    produce repeatable output.  Raises :class:`Unavailable` on a missing or
    bad URL, a network error, a timeout, a reply still arriving
    :data:`REPHRASE_TIMEOUT_S` after the call began or a non-2xx reply
    (callers fall back to the base text), :class:`ProtocolError` on a
    malformed, too deeply nested or over-long body and
    :class:`EmptyCompletion` on an empty completion.
    """
    # imported here so that commands which never rephrase never load HTTP
    import http.client
    import urllib.request

    endpoint = resolve_endpoint(endpoint)
    model = model or os.environ.get(MODEL_ENV, "")
    payload = {
        "model": model,
        "messages": [
            {"role": "user", "content": f"{REPHRASE_INSTRUCTION}\n{text}"},
        ],
        "temperature": 0,
        "seed": 0,
    }
    deadline = time.monotonic() + REPHRASE_TIMEOUT_S
    try:
        request = urllib.request.Request(
            endpoint, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"}, method="POST")
        with urllib.request.urlopen(request, timeout=REPHRASE_TIMEOUT_S) as response:
            raw = bytearray()
            while chunk := response.read1(MAX_REPLY_BYTES + 1 - len(raw)):
                raw += chunk
                if time.monotonic() > deadline:
                    raise Unavailable(f"rephrase reply took over {REPHRASE_TIMEOUT_S} s")
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raise Unavailable(f"rephrase endpoint failed: {exc}") from exc
    if len(raw) > MAX_REPLY_BYTES:
        raise ProtocolError(f"response body exceeds {MAX_REPLY_BYTES} bytes")
    try:
        body = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"response is not JSON: {exc}") from exc
    completion = _extract_completion(body).strip()
    if not completion:
        raise EmptyCompletion("endpoint returned an empty completion")
    return completion

