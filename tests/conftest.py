import copy
import json
import os
import sys

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile(
    "exact",
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture
def reference_agreement(request, monkeypatch):
    """Record each document the test verifies through its module's
    `verify_document` or the CLI's, and check after the test, its spies
    undone, that each property of each fails exactly when the reference
    says it does not hold.  The recorders are set by hand, so a test that
    undoes its own monkeypatches midway keeps them."""
    from algforge import cli, verify
    import reference
    from corpus import agrees
    docs = {}

    def recording(doc):
        docs.setdefault(json.dumps(doc, sort_keys=True), copy.deepcopy(doc))
        return verify.verify_document(doc)

    module = request.module
    module.verify_document = cli.verify_document = recording
    try:
        yield
    finally:
        monkeypatch.undo()
        module.verify_document = cli.verify_document = verify.verify_document
    for doc in docs.values():
        assert agrees(reference.verdicts(doc), verify.verify_document(doc))
