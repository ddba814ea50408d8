"""Seeded report corpus for the stats workload.

Reports are written in the stable report format (the JSON layout the
analyzer writes: `indent=2`, sorted keys) together with a corpus CSV whose
metadata rows hit every edge of the default selection filter. The mix is
fixed; the seed only chooses contents.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from apps import TEE_DETECTORS

REPORTS = 24_000
ERRORS = 700
TIMEOUTS = 300
HEAVY = 24                      # reports with thousands of crypto records
HEAVY_RECORDS = (1_000, 3_000)
METADATA_ONLY = 250             # metadata rows with no report
NO_METADATA = 1_200             # reports with no metadata row

# Library packages: known prefixes, deep unknown packages (grouped by
# their first four segments) and near misses of known prefixes.
LIB_PACKAGES = (
    "com.appsflyer.internal", "com.appsflyer", "androidx.biometric",
    "com.flurry.sdk.ads", "com.google.android.exoplayer2.drm",
    "com.google.android.exoplayer2.drm.session", "mono.android.drm",
    "androidx.media2.player.exo", "com.segment.analytics.crypto",
    "com.microsoft.appcenter.utils.crypto", "expo.modules.securestore",
    "com.vendor.sdk.crypto.aes.impl", "io.reactivex.internal.operators",
    "com.appsflyerx.core", "org.chromium.net", "com.tuya.smart.biometric.finger.compat.v2",
    "com.oblador.keychain.cipherStorage", "android.security",
)
MAIN_PACKAGES = ("com.rand.app", "com.rand.app.ui", "a.b", "o")
OBF_PACKAGES = ("Qzx", "com._9f", "")
TARGETS = {
    "keystore": ("android.security.keystore.KeyGenParameterSpec$Builder",
                 "build"),
    "drm": ("android.media.MediaDrm", "openSession"),
    "biometrics": ("android.hardware.biometrics.BiometricPrompt",
                   "authenticate"),
    "protected_confirmation": ("android.security.ConfirmationPrompt",
                               "presentPrompt"),
}
SOFTWARE_LIBS = ("java_security", "jetpack_security", "bouncycastle",
                 "nimbus_jose_jwt", "google_tink", "jasypt")
CRYPTO_CLASSES = {
    "java_security": "javax.crypto.Cipher",
    "jetpack_security": "androidx.security.crypto.MasterKey",
    "bouncycastle": "org.bouncycastle.crypto.engines.AESEngine",
    "nimbus_jose_jwt": "com.nimbusds.jose.JWSObject",
    "google_tink": "com.google.crypto.tink.Aead",
    "jasypt": "org.jasypt.util.text.BasicTextEncryptor",
}
NATIVE_LIBS = (("openssl", "libcrypto.so"), ("openssl", "libssl.so"),
               ("sodium", "libsodium.so"), ("cryptopp", "libcryptopp.so"),
               ("wolfssl", "libwolfssl.so"))
# Category and metadata values on both sides of every filter edge: game
# categories and their non-game namesakes, downloads around 10,000, dates
# around 2020-01-01, and missing values.
CATEGORIES = ("Finance", "Tools", "Education", "Educational", "Music & Audio",
              "Music (game)", "Sports", "Sports (game)", "Casino", "Word",
              "Communication", "Health & Fitness", "")
DOWNLOADS = ("", "0", "9999", "10000", "10001", "500000", "100000000")
DATES = ("", "2019-12-31", "2020-01-01", "2020-01-02", "2023-05-01")
_DETECTOR_WEIGHTS = (8, 5, 4, 1)


def _match(rng, detector, kind, offset):
    if kind == "inlib":
        pkg = rng.choice(LIB_PACKAGES)
    elif kind == "inmain":
        pkg = rng.choice(MAIN_PACKAGES)
    else:
        pkg = rng.choice(OBF_PACKAGES)
    cls, method = TARGETS[detector]
    return {
        "caller_class": (pkg + "." if pkg else "") + f"C{rng.randrange(500)}",
        "code_offset": offset,
        "detector": detector,
        "dex_file": rng.choice(("classes.dex", "classes.dex", "classes2.dex")),
        "location": kind,
        "package": pkg,
        "target_class": cls,
        "target_method": method,
    }


def _crypto_match(rng, lib, offset):
    invoked = rng.random() < 0.7
    pkg = rng.choice(LIB_PACKAGES + MAIN_PACKAGES) if invoked else ""
    return {
        "caller_class": f"{pkg}.K{rng.randrange(99)}" if invoked else "",
        "code_offset": offset,
        "detector": lib,
        "dex_file": "classes.dex",
        "location": (("inmain" if pkg in MAIN_PACKAGES else "inlib")
                     if invoked else "obfuscated"),
        "package": pkg,
        "target_class": CRYPTO_CLASSES[lib],
        "target_method": rng.choice(("getInstance", "init", "doFinal")),
    }


def _tee_count(i: int) -> int:
    """Fixed distribution of TEE matches per ok report (by position)."""
    r = (i * 7919) % 100
    if r < 52:
        return 0
    if r < 80:
        return 1 + r % 3
    if r < 95:
        return 4 + r % 7
    return 12 + r % 29


def _report(rng, sha, status, tee_n, crypto_n):
    matches, crypto_libs, native = [], [], []
    if status == "ok":
        offset = 0x70
        for _ in range(tee_n):
            det = rng.choices(TEE_DETECTORS, _DETECTOR_WEIGHTS)[0]
            kind = rng.choices(("inlib", "inmain", "obfuscated"), (6, 3, 1))[0]
            offset += rng.randrange(2, 400)
            matches.append(_match(rng, det, kind, offset))
        if crypto_n:
            crypto_libs = sorted(rng.sample(SOFTWARE_LIBS,
                                            rng.randint(1, 3)))
            for _ in range(crypto_n):
                offset += rng.randrange(2, 60)
                matches.append(_crypto_match(rng, rng.choice(crypto_libs),
                                             offset))
        if rng.random() < 0.12:
            for lib, stem in rng.sample(NATIVE_LIBS, rng.randint(1, 2)):
                native.append({"file": f"lib/arm64-v8a/{stem}",
                               "library": lib})
    detectors = {m["detector"] for m in matches}
    return {
        "crypto_libs": crypto_libs,
        "matches": matches,
        "meta": {
            "api_summary": {d: d in detectors for d in TEE_DETECTORS},
            "expected_package": None,
            "message": "" if status == "ok" else f"synthetic {status}",
            "min_sdk": 23 if status == "ok" else None,
            "package": "com.rand.app" if status == "ok" else "",
            "package_name_check": "unchecked",
            "permissions": [],
            "sha256": sha,
            "status": status,
        },
        "native_libs": native,
        "timing": {"stages": {"dex": 0.01}, "total_s": 0.02},
    }


def gen_stats_corpus(rng: random.Random, root: Path) -> dict:
    report_dir = root / "reports"
    report_dir.mkdir(parents=True)
    statuses = (["error"] * ERRORS + ["timeout"] * TIMEOUTS
                + ["ok"] * (REPORTS - ERRORS - TIMEOUTS))
    rng.shuffle(statuses)
    heavy = set(rng.sample(range(REPORTS), HEAVY))
    lo, hi = HEAVY_RECORDS
    heavy_sizes = iter(lo + (hi - lo) * k // (HEAVY - 1) for k in range(HEAVY))
    shas = [f"{rng.getrandbits(256):064x}" for _ in range(REPORTS)]
    matches_total = 0
    for i, (sha, status) in enumerate(zip(shas, statuses)):
        crypto_n = (next(heavy_sizes) if i in heavy
                    else (i * 31) % 7 if (i * 13) % 10 < 4 else 0)
        doc = _report(rng, sha, status, _tee_count(i), crypto_n)
        matches_total += len(doc["matches"])
        (report_dir / f"{sha}.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n")

    lines = ["sha256,package_name,category,downloads,last_update,path_or_remote",
             "# metadata export, one row per listed app"]
    without = set(rng.sample(range(REPORTS), NO_METADATA))
    listed = [sha for i, sha in enumerate(shas) if i not in without]
    listed += [f"{rng.getrandbits(256):064x}" for _ in range(METADATA_ONLY)]
    rng.shuffle(listed)
    for sha in listed:
        lines.append(",".join((sha, "com.rand.app", rng.choice(CATEGORIES),
                               rng.choice(DOWNLOADS), rng.choice(DATES), "")))
    (root / "corpus.csv").write_text("\n".join(lines) + "\n")

    one = root / "one"
    (one / "reports").mkdir(parents=True)
    sha = f"{rng.getrandbits(256):064x}"
    doc = _report(rng, sha, "ok", 3, 2)
    (one / "reports" / f"{sha}.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")
    (one / "corpus.csv").write_text(
        f"{lines[0]}\n{sha},com.rand.app,Tools,50000,2021-03-01,\n")
    return {"reports": REPORTS, "matches": matches_total}
