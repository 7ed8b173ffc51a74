"""Caption templates and the optional HTTP rephrasing step."""

import os
import pickle
import subprocess
import sys
import time

import pytest

import taco
import taco.captioner

from taco.captioner import (
    BASE_CAPTIONS,
    NO_SALIENT_CAPTION,
    REPHRASE_INSTRUCTION,
    TimeSeriesClass,
    base_caption,
    classes_from_caption,
    rephrase,
)
from taco.errors import EmptyCompletion, ProtocolError, Unavailable

from conftest import MockLLMHandler


# ---------------------------------------------------------------------------
# base captions
# ---------------------------------------------------------------------------

def test_rising_smooth_reference_caption():
    got = base_caption({TimeSeriesClass.RISING, TimeSeriesClass.SMOOTH})
    assert got == "The signal has a rising trend. The signal has a smooth shape."


def test_empty_class_set_fallback():
    assert base_caption(set()) == NO_SALIENT_CAPTION


def test_caption_order_independent():
    a = base_caption([TimeSeriesClass.SMOOTH, TimeSeriesClass.RISING])
    b = base_caption([TimeSeriesClass.RISING, TimeSeriesClass.SMOOTH])
    assert a == b


def test_templates_complete_sentences():
    # each class row carries its template; BASE_CAPTIONS keeps member order,
    # and a member still pickles and looks up by its name
    assert list(BASE_CAPTIONS) == list(TimeSeriesClass)
    for member, template in BASE_CAPTIONS.items():
        assert template == member.caption
        assert template and template.endswith(".")
        assert TimeSeriesClass(member.value) is member
        assert pickle.loads(pickle.dumps(member)) is member


def test_caption_roundtrip_to_classes():
    classes = {TimeSeriesClass.FALLING, TimeSeriesClass.NOISY,
               TimeSeriesClass.HIGH_AMPLITUDE}
    assert classes_from_caption(base_caption(classes)) == classes


def test_templates_are_class_local():
    # no template is a substring of another, so round-trips cannot cross-talk
    templates = list(BASE_CAPTIONS.values())
    for i, a in enumerate(templates):
        for j, b in enumerate(templates):
            if i != j:
                assert a not in b


# ---------------------------------------------------------------------------
# rephrasing over HTTP (mock endpoint fixture lives in conftest)
# ---------------------------------------------------------------------------

def test_rephrase_echo(mock_endpoint):
    _, url = mock_endpoint
    got = rephrase("The signal has a rising trend.", endpoint=url, model="m")
    assert got == MockLLMHandler.fixed_reply


def test_rephrase_accepts_plain_text_field(mock_endpoint):
    server, url = mock_endpoint
    server.mode = "text-field"
    assert rephrase("x", endpoint=url, model="m") == MockLLMHandler.fixed_reply


def test_rephrase_unreachable_endpoint(monkeypatch):
    monkeypatch.setattr(taco.captioner, "REPHRASE_TIMEOUT_S", 2.0)
    with pytest.raises(Unavailable):
        rephrase("x", endpoint="http://127.0.0.1:9/nothing", model="m")


def test_rephrase_requires_endpoint(monkeypatch):
    monkeypatch.delenv("TACO_LLM_ENDPOINT", raising=False)
    with pytest.raises(Unavailable):
        rephrase("x")


def test_rephrase_missing_completion(mock_endpoint):
    server, url = mock_endpoint
    server.mode = "missing"
    with pytest.raises(ProtocolError):
        rephrase("x", endpoint=url, model="m")


def test_rephrase_empty_completion(mock_endpoint):
    server, url = mock_endpoint
    server.mode = "empty"
    with pytest.raises(EmptyCompletion):
        rephrase("x", endpoint=url, model="m")


def test_rephrase_sends_fixed_instruction(mock_endpoint):
    server, url = mock_endpoint
    server.mode = "tag"
    got = rephrase("caption body.", endpoint=url, model="m")
    assert got == "rephrased::caption body."
    assert REPHRASE_INSTRUCTION  # the instruction itself stays fixed


@pytest.mark.parametrize("mode, endpoint, error", [
    ("status-500", None, Unavailable),
    ("not-json", None, ProtocolError),
    ("slow", None, Unavailable),
    ("echo", "notaurl", Unavailable),
    ("deep", None, ProtocolError),
], ids=["status-500", "not-json", "timeout", "malformed-url", "deep-nesting"])
def test_rephrase_error_mapping(mode, endpoint, error, mock_endpoint, monkeypatch):
    server, url = mock_endpoint
    server.mode = mode
    monkeypatch.setattr(taco.captioner, "REPHRASE_TIMEOUT_S", 0.2)
    with pytest.raises(error):
        rephrase("x", endpoint=endpoint or url, model="m")


def test_rephrase_deadline_bounds_a_trickled_reply(mock_endpoint, monkeypatch):
    # each byte arrives well inside the socket timeout, so only a deadline on
    # the whole reply ends the call before the body's 5 s are up
    server, url = mock_endpoint
    server.mode = "trickle"
    monkeypatch.setattr(taco.captioner, "REPHRASE_TIMEOUT_S", 0.5)
    start = time.monotonic()
    with pytest.raises(Unavailable, match="took over 0.5 s"):
        rephrase("x", endpoint=url, model="m")
    assert time.monotonic() - start < 1.5


def test_rephrase_rejects_over_long_reply(mock_endpoint, monkeypatch):
    _, url = mock_endpoint
    monkeypatch.setattr(taco.captioner, "MAX_REPLY_BYTES", 16)
    with pytest.raises(ProtocolError, match="exceeds 16 bytes"):
        rephrase("x", endpoint=url, model="m")


def test_cli_import_loads_no_http_modules():
    # rephrasing imports its HTTP client on first use, so other commands never pay for it
    src = os.path.dirname(os.path.dirname(taco.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, taco.cli; "
             "print([m for m in ('requests', 'urllib.request', 'http.client') "
             "if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
