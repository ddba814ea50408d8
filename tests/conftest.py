"""Shared fixture factories: in-memory APKs, planted detections, corpora.

Archives are assembled with the standard library's zipfile (an independent
writer from the reader under test) and manifests with the test-side AXML
encoder, so container and manifest round-trips always cross two
implementations.
"""

from __future__ import annotations

import io
import random
import zipfile
from collections import Counter
from typing import NamedTuple

import pytest

from analytika import pipeline
from analytika.dex import MethodRef
from analytika.errors import AnalysisTimeout

from axml_encoder import manifest_bytes
from dexbuild import build_fixture_dex

DEFAULT_PACKAGE = "com.fixture.app"

# 3 keystore + 1 drm + 1 biometrics + 1 protected_confirmation planted
# invocations, plus two that match nothing.
PLANTED_PLAN = [
    ("com.fixture.app.MainActivity", [
        ("android.security.keystore.KeyGenParameterSpec$Builder", "<init>"),
        ("android.security.keystore.KeyGenParameterSpec$Builder", "build"),
        ("java.lang.String", "valueOf"),
    ]),
    ("com.thirdparty.sdk.Tracker", [
        ("android.security.KeyChain", "getPrivateKey"),
        ("android.media.MediaDrm", "openSession"),
    ]),
    ("com.fixture.app.BioHelper", [
        ("android.hardware.biometrics.BiometricPrompt", "authenticate"),
        ("android.security.ConfirmationPrompt", "presentPrompt"),
        ("com.example.util.Helper", "doWork"),
    ]),
]

PLANTED_EXPECTED = {
    ("keystore", "android.security.keystore.KeyGenParameterSpec$Builder", "<init>"),
    ("keystore", "android.security.keystore.KeyGenParameterSpec$Builder", "build"),
    ("keystore", "android.security.KeyChain", "getPrivateKey"),
    ("drm", "android.media.MediaDrm", "openSession"),
    ("biometrics", "android.hardware.biometrics.BiometricPrompt", "authenticate"),
    ("protected_confirmation", "android.security.ConfirmationPrompt", "presentPrompt"),
}

# Two overloads with one shorty (VIL): a join on (class, name, shorty)
# would give each one the other's invocations.
CIPHER_INIT_OVERLOADS = [
    ("javax.crypto.Cipher", "init", "void", ("int", "java.security.Key")),
    ("javax.crypto.Cipher", "init", "void",
     ("int", "java.security.cert.Certificate")),
]

# A pattern class planted as a bare string-pool entry; only a matcher that
# fires on uninvoked class names would report it.
UNREFERENCED_PATTERN_STRING = "Landroid/security/keystore/KeyProperties;"


class Invoke(NamedTuple):
    caller_class: str
    target: MethodRef
    code_offset: int


def invokes(unit) -> list[Invoke]:
    """A parsed unit's invoke columns as rows, in parse order."""
    return [Invoke(unit.class_names[caller], unit.methods[method_idx], offset)
            for caller, method_idx, offset in zip(
                unit.invoke_callers, unit.invoke_methods, unit.invoke_offsets)]


def invocation_multiset(unit) -> Counter:
    """(caller, target class, target method) of each invoke, counted."""
    return Counter((inv.caller_class, inv.target.defining_class,
                    inv.target.method_name) for inv in invokes(unit))


def plan_multiset(plan) -> Counter:
    """(caller, target class, target method) of each planned call, counted."""
    return Counter((caller, cls, method)
                   for caller, targets in plan
                   for cls, method in targets)


def make_apk(entries: dict[str, bytes], stored: tuple[str, ...] = ()) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data in entries.items():
            method = zipfile.ZIP_STORED if name in stored else zipfile.ZIP_DEFLATED
            zf.writestr(zipfile.ZipInfo(name), data, compress_type=method)
    return buf.getvalue()


def make_fixture_apk(package: str = DEFAULT_PACKAGE, dex_plans=None,
                     native_libs: tuple[str, ...] = (),
                     permissions: tuple[str, ...] = (),
                     min_sdk=None, extra_strings=(),
                     extra_entries: dict[str, bytes] | None = None) -> bytes:
    entries: dict[str, bytes] = {
        "AndroidManifest.xml": manifest_bytes(package, permissions, min_sdk),
    }
    for i, plan in enumerate(dex_plans or []):
        name = "classes.dex" if i == 0 else f"classes{i + 1}.dex"
        entries[name] = build_fixture_dex(plan, extra_strings=extra_strings)
    for lib in native_libs:
        entries[lib] = b"\x7fELF" + lib.encode() * 4
    if extra_entries:
        entries.update(extra_entries)
    return make_apk(entries)


def planted_apk(**kwargs) -> bytes:
    return make_fixture_apk(
        dex_plans=[PLANTED_PLAN],
        native_libs=("lib/arm64-v8a/libcrypto.so",),
        extra_strings=(UNREFERENCED_PATTERN_STRING,),
        **kwargs)


_SMOKE_PATTERN_TARGETS = [
    ("android.security.keystore.KeyGenParameterSpec$Builder", "setKeySize"),
    ("android.security.keystore.KeyInfo", "getSecurityLevel"),
    ("android.media.MediaDrm", "getKeyRequest"),
    ("android.media.MediaDrm$CryptoSession", "encrypt"),
    ("android.hardware.biometrics.BiometricManager", "canAuthenticate"),
    ("android.security.ConfirmationPrompt$Builder", "build"),
    ("com.google.crypto.tink.Aead", "encrypt"),
    ("org.bouncycastle.crypto.Digest", "update"),
]

_SMOKE_PLAIN_TARGETS = [
    ("java.lang.StringBuilder", "append"),
    ("java.util.List", "add"),
    ("android.util.Log", "d"),
    ("com.example.net.Client", "get"),
    ("a.b.C", "run"),
    ("io.reactivex.Observable", "subscribe"),
]


def random_plan(rng: random.Random, max_classes: int = 50,
                max_targets: int = 10, pattern_share: float = 0.25):
    """A fixture plan with a mix of detector and plain invocation targets."""
    plan = []
    for c in range(rng.randint(1, max_classes)):
        caller = f"com.gen{rng.randint(0, 9)}.p{rng.randint(0, 99)}.Cls{c}"
        if rng.random() < 0.2:
            caller += f"$Inner{rng.randint(0, 3)}"
        targets = []
        for _ in range(rng.randint(0, max_targets)):
            pool = (_SMOKE_PATTERN_TARGETS
                    if rng.random() < pattern_share else _SMOKE_PLAIN_TARGETS)
            targets.append(rng.choice(pool))
        plan.append((caller, targets))
    return plan


def build_smoke_corpus(seed: int = 7, count: int = 6):
    """Varied multi-dex APKs with manifests and native libs, seeded."""
    rng = random.Random(seed)
    corpus = []
    for i in range(count):
        package = f"com.smoke.app{i}"
        plans = [random_plan(rng, max_classes=20, max_targets=8)
                 for _ in range(rng.randint(1, 3))]
        libs = ("lib/arm64-v8a/libssl.so",) if i % 2 else ()
        corpus.append((package, make_fixture_apk(
            package=package, dex_plans=plans, native_libs=libs,
            permissions=("android.permission.INTERNET",), min_sdk=23)))
    return corpus


# In the timeout tests a deadline lasts this many checks, not seconds.
# Analysis checks its deadline once per class definition (and at each stage
# and inflated piece), so the slow app below times out however fast the
# parser is, and the small apps beside it never come near the limit.
DEADLINE_CHECKS = 500


class CheckCountDeadline(pipeline.Deadline):
    """A deadline that expires on check number DEADLINE_CHECKS + 1."""

    def __init__(self, seconds: float):
        super().__init__(seconds)
        self.checks = 0

    def check(self) -> None:
        self.checks += 1
        if self.checks > DEADLINE_CHECKS:
            raise AnalysisTimeout(f"analysis exceeded {self.seconds}s deadline")


def build_slow_apk(package: str = "com.slow.app",
                   classes: int = 2 * DEADLINE_CHECKS) -> bytes:
    """An app with twice as many class definitions as a deadline of the
    timeout tests lasts checks."""
    plan = [(f"com.slow.p{c % 37}.Cls{c}",
             [(f"com.t{c % 151}.x.Target", "m")]) for c in range(classes)]
    return make_apk({"AndroidManifest.xml": manifest_bytes(package),
                     "classes.dex": build_fixture_dex(plan)})


@pytest.fixture(scope="session")
def smoke_corpus():
    return build_smoke_corpus()


@pytest.fixture(scope="session")
def _slow_apk_bytes():
    return build_slow_apk()


@pytest.fixture
def slow_apk(_slow_apk_bytes, monkeypatch):
    """The slow app; for the test, every analysis deadline is a
    CheckCountDeadline, so the app is slow by construction."""
    monkeypatch.setattr(pipeline, "Deadline", CheckCountDeadline)
    return _slow_apk_bytes


@pytest.fixture
def fixture_apk_bytes():
    return planted_apk()
