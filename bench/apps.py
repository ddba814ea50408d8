"""Seeded APK corpora with the report each app must produce.

Every app is built from a plan: which classes it defines, which methods
each body invokes, which TEE, crypto and native-library uses are planted
and in what kind of package (app, library, shrunk, obfuscated). The
expected report is derived from that plan and the DEX writer's own record
of where each invoke landed; the program's code is never consulted.
"""

from __future__ import annotations

import hashlib
import io
import random
import struct
import zipfile
from dataclasses import dataclass

from axmlgen import manifest_bytes
from dexgen import (ClassSpec, FILLER_OPS, MethodSpec, OBJECT, STRING,
                    build_dex, dotted_to_desc)

TEE_DETECTORS = ("keystore", "drm", "biometrics", "protected_confirmation")

CONTEXT = "Landroid/content/Context;"
EXECUTOR = "Ljava/util/concurrent/Executor;"
UUID = "Ljava/util/UUID;"
CHARSEQ = "Ljava/lang/CharSequence;"
BYTES = "[B"
SB = "Ljava/lang/StringBuilder;"


def _ref(cls, name, ret="V", params=()):
    return (dotted_to_desc(cls), name, ret, tuple(params))


_KGPS = "android.security.keystore.KeyGenParameterSpec"
_BP = "android.hardware.biometrics.BiometricPrompt"
_CP = "android.security.ConfirmationPrompt"

# Invocation targets that a TEE detector must report, with the detector.
# Covers plain rows, inner-class rows, and wildcard rows reached through
# an inner class.
TEE_TARGETS = (
    (_ref(_KGPS + "$Builder", "<init>", "V", (STRING, "I")), "keystore"),
    (_ref(_KGPS + "$Builder", "setBlockModes", "L" + _KGPS.replace(".", "/")
          + "$Builder;", ("[Ljava/lang/String;",)), "keystore"),
    (_ref(_KGPS + "$Builder", "build", "L" + _KGPS.replace(".", "/") + ";"),
     "keystore"),
    (_ref("android.security.keystore.KeyInfo", "isInsideSecureHardware", "Z"),
     "keystore"),
    (_ref("android.security.keystore.KeyProperties$Digest", "values",
          "[Ljava/lang/String;"), "keystore"),
    (_ref("android.security.KeyChain", "getPrivateKey",
          "Ljava/security/PrivateKey;", (CONTEXT, STRING)), "keystore"),
    (_ref("android.security.keystore.UserNotAuthenticatedException",
          "<init>"), "keystore"),
    (_ref("android.media.MediaDrm", "<init>", "V", (UUID,)), "drm"),
    (_ref("android.media.MediaDrm", "openSession", BYTES), "drm"),
    (_ref("android.media.MediaDrm$KeyRequest", "getData", BYTES), "drm"),
    (_ref("android.media.MediaCrypto", "<init>", "V", (UUID, BYTES)), "drm"),
    (_ref("android.drm.DrmManagerClient", "<init>", "V", (CONTEXT,)), "drm"),
    (_ref("android.drm.DrmStore$RightsStatus", "<init>"), "drm"),
    (_ref(_BP, "authenticate", "V",
          ("Landroid/os/CancellationSignal;", EXECUTOR,
           "Landroid/hardware/biometrics/BiometricPrompt$AuthenticationCallback;")),
     "biometrics"),
    (_ref(_BP + "$Builder", "<init>", "V", (CONTEXT,)), "biometrics"),
    (_ref(_BP + "$Builder", "setTitle",
          "Landroid/hardware/biometrics/BiometricPrompt$Builder;", (CHARSEQ,)),
     "biometrics"),
    (_ref("android.hardware.biometrics.BiometricManager", "canAuthenticate",
          "I", ("I",)), "biometrics"),
    (_ref("android.hardware.biometrics.BiometricManager$Authenticators",
          "<init>"), "biometrics"),
    (_ref(_CP + "$Builder", "<init>", "V", (CONTEXT,)),
     "protected_confirmation"),
    (_ref(_CP + "$Builder", "setPromptText",
          "Landroid/security/ConfirmationPrompt$Builder;", (CHARSEQ,)),
     "protected_confirmation"),
    (_ref(_CP, "presentPrompt", "V",
          (EXECUTOR, "Landroid/security/ConfirmationCallback;")),
     "protected_confirmation"),
)

# Library-weighted detector mix: keystore and drm are common, the
# confirmation dialog is rare (as the paper reports).
_TEE_WEIGHTS = {"keystore": 8, "drm": 5, "biometrics": 4,
                "protected_confirmation": 1}

# Crypto method refs: (ref, detector). No two share (class, name, shorty),
# so each one's records are exactly its own invocations.
CRYPTO_REFS = (
    (_ref("java.security.MessageDigest", "getInstance",
          "Ljava/security/MessageDigest;", (STRING,)), "java_security"),
    (_ref("java.security.MessageDigest", "digest", BYTES, (BYTES,)),
     "java_security"),
    (_ref("java.security.KeyStore", "getInstance", "Ljava/security/KeyStore;",
          (STRING,)), "java_security"),
    (_ref("java.security.KeyStore", "load", "V",
          ("Ljava/security/KeyStore$LoadParameter;",)), "java_security"),
    (_ref("java.security.SecureRandom", "nextBytes", "V", (BYTES,)),
     "java_security"),
    (_ref("java.security.spec.ECGenParameterSpec", "<init>", "V", (STRING,)),
     "java_security"),
    (_ref("javax.crypto.Cipher", "getInstance", "Ljavax/crypto/Cipher;",
          (STRING,)), "java_security"),
    (_ref("javax.crypto.Cipher", "doFinal", BYTES, (BYTES,)), "java_security"),
    (_ref("javax.crypto.Mac", "init", "V", ("Ljava/security/Key;",)),
     "java_security"),
    (_ref("javax.crypto.spec.SecretKeySpec", "<init>", "V", (BYTES, STRING)),
     "java_security"),
    (_ref("androidx.security.crypto.MasterKey$Builder", "<init>", "V",
          (CONTEXT,)), "jetpack_security"),
    (_ref("androidx.security.crypto.EncryptedSharedPreferences", "create",
          "Landroid/content/SharedPreferences;",
          (CONTEXT, STRING, "Landroidx/security/crypto/MasterKey;",
           "Landroidx/security/crypto/EncryptedSharedPreferences$PrefKeyEncryptionScheme;",
           "Landroidx/security/crypto/EncryptedSharedPreferences$PrefValueEncryptionScheme;")),
     "jetpack_security"),
    (_ref("org.bouncycastle.crypto.engines.AESEngine", "processBlock", "I",
          (BYTES, "I", BYTES, "I")), "bouncycastle"),
    (_ref("org.bouncycastle.jce.provider.BouncyCastleProvider", "<init>"),
     "bouncycastle"),
    (_ref("org.spongycastle.crypto.digests.SHA256Digest", "<init>"),
     "bouncycastle"),
    (_ref("com.nimbusds.jose.JWSObject", "parse",
          "Lcom/nimbusds/jose/JWSObject;", (STRING,)), "nimbus_jose_jwt"),
    (_ref("com.google.crypto.tink.aead.AeadConfig", "register"),
     "google_tink"),
    (_ref("org.jasypt.util.text.BasicTextEncryptor", "encrypt", STRING,
          (STRING,)), "jasypt"),
    (_ref("com.amazonaws.services.kms.AWSKMSClient", "<init>"), "aws_kms"),
    (_ref("org.cryptonode.jncryptor.AES256JNCryptor", "<init>"), "jncryptor"),
)

# Two same-shorty overloads (both VIL). A correct matcher reports one
# record per invocation; joining invocations on (class, name, shorty)
# reports each invocation once per overload.
OVERLOAD_PAIR = (
    (_ref("javax.crypto.Cipher", "init", "V", ("I", "Ljava/security/Key;")),
     "java_security"),
    (_ref("javax.crypto.Cipher", "init", "V",
          ("I", "Ljava/security/cert/Certificate;")), "java_security"),
)

# Targets that must match nothing: ordinary framework calls plus near
# misses of every rule (unlisted method, enclosing class without a row,
# prefix without a package boundary, sibling package).
PLAIN_TARGETS = (
    _ref("java.lang.StringBuilder", "<init>"),
    _ref("java.lang.StringBuilder", "append", SB, (STRING,)),
    _ref("java.lang.StringBuilder", "toString", STRING),
    _ref("java.lang.Object", "<init>"),
    _ref("android.util.Log", "d", "I", (STRING, STRING)),
    _ref("android.os.Bundle", "getString", STRING, (STRING,)),
    _ref("java.util.ArrayList", "add", "Z", (OBJECT,)),
    _ref("java.util.HashMap", "put", OBJECT, (OBJECT, OBJECT)),
    _ref("android.content.Context", "getSystemService", OBJECT, (STRING,)),
    _ref("kotlin.jvm.internal.Intrinsics", "checkNotNullParameter", "V",
         (OBJECT, STRING)),
    _ref("java.lang.Math", "max", "J", ("J", "J")),
    _ref("android.app.AlarmManager", "setExact", "V",
         ("I", "J", "Landroid/app/PendingIntent;")),
    _ref("android.graphics.Canvas", "drawRect", "V",
         ("F", "F", "F", "F", "Landroid/graphics/Paint;")),
    _ref("java.lang.Integer", "valueOf", "Ljava/lang/Integer;", ("I",)),
    _ref("android.view.View", "setVisibility", "V", ("I",)),
    _ref("android.media.MediaPlayer", "start"),
    _ref("android.media.MediaDrm$OnEventListener", "onEvent", "V",
         ("Landroid/media/MediaDrm;", BYTES, "I", "I", BYTES)),
    _ref(_KGPS + "$Builder", "setRandomizedEncryptionRequired",
         "L" + _KGPS.replace(".", "/") + "$Builder;", ("Z",)),
    _ref(_BP, "getTitle", CHARSEQ),
    _ref("android.security.NetworkSecurityPolicy",
         "isCleartextTrafficPermitted", "Z"),
    _ref("java.securityx.Helper", "run"),
    _ref("javax.cryptography.Tool", "run"),
    _ref("org.bouncycastle.util.Arrays", "clone", BYTES, (BYTES,)),
)

# Third-party packages that host library code (all valid application ids).
LIBRARY_PACKAGES = (
    "com.google.android.exoplayer2.drm", "androidx.biometric",
    "com.appsflyer.internal", "com.flurry.sdk", "androidx.media2.player",
    "com.segment.analytics.internal", "com.oblador.keychain.cipherStorage",
    "expo.modules.securestore", "com.microsoft.appcenter.utils.crypto",
    "com.tuya.smart.biometric.finger.compat", "io.reactivex.internal.operators",
    "okhttp3.internal.tls", "com.squareup.picasso", "org.chromium.net.impl",
    "com.facebook.react.bridge", "kotlin.collections",
    "com.mbridge.msdk.playercommon.exoplayer2.drm", "com.inmobile.sdk",
)
SHRUNK_PACKAGES = ("a.b", "c.d.e", "o", "x.y")
# Not shrinker-shaped and not valid application ids; "" is the default
# package.
OBFUSCATED_PACKAGES = ("Qzx", "com._9f", "", "net.Z$k.q")

NATIVE_LIBS = (  # (file stem, library or None)
    ("libcrypto.so", "openssl"), ("libssl.so.1.1", "openssl"),
    ("libsodium_2.0.so", "sodium"), ("libcryptopp-8.so", "cryptopp"),
    ("libwolfssl.so", "wolfssl"), ("libcryptonite.so", None),
    ("libnative-lib.so", None), ("libc++_shared.so", None),
)
ABIS = ("arm64-v8a", "armeabi-v7a", "x86_64")

PERMISSIONS = ("android.permission.INTERNET", "android.permission.CAMERA",
               "android.permission.USE_BIOMETRIC",
               "android.permission.ACCESS_NETWORK_STATE",
               "android.permission.WAKE_LOCK")
CATEGORIES = ("Finance", "Tools", "Education", "Communication", "Shopping",
              "Music & Audio", "Casino", "Puzzle", "Health & Fitness")
_WORDS = ("acme", "pixel", "ledger", "notes", "vault", "photon", "river",
          "cobalt", "tandem", "orbit", "meadow", "quartz", "harbor", "signal")
_NON_ASCII = ("Привет, мир", "café crème", "日本語テキスト", "Grüße",
              "κλειδί", "🔒 secure", "zażółć", "مرحبا")


@dataclass
class AppSpec:
    """Size and plant counts of one generated app."""

    dex_classes: tuple       # classes per DEX file
    tee_plants: int = 0
    crypto_refs: int = 0
    native: int = 0          # native libraries in lib/
    filler_entries: int = 10
    filler_kb: int = 50
    methods_per_class: float = 3.0
    invokes_per_method: float = 6.0
    overload: bool = False


@dataclass
class BuiltApp:
    data: bytes
    package: str
    expected: dict           # deterministic report minus meta.sha256/expected
    props: dict              # input properties of this app


def _location(pkg_kind: str) -> str:
    return {"app": "inmain", "shrunk": "inmain", "lib": "inlib",
            "obf": "obfuscated"}[pkg_kind]


def _class_package(cls: str) -> str:
    return cls.rsplit(".", 1)[0] if "." in cls else ""


def _filler_body(rng, n_invokes, targets, plants, non_ascii_share):
    """A method body: invokes of `targets` with plants spliced in."""
    body = []
    slots = n_invokes + len(plants)
    plant_at = set(rng.sample(range(slots), len(plants))) if plants else set()
    plants = list(plants)
    for slot in range(slots):
        r = rng.random()
        if r < 0.25:
            op, width = FILLER_OPS[rng.randrange(len(FILLER_OPS))]
            body.append(("op", op, width))
        elif r < 0.35:
            text = (rng.choice(_NON_ASCII) if rng.random() < non_ascii_share
                    else rng.choice(_WORDS)) + f" {rng.randrange(100_000)}"
            body.append(("str", text))
        if slot in plant_at:
            ref = plants.pop()
        else:
            ref = targets[rng.randrange(len(targets))]
        kind = ("direct" if ref[1] == "<init>"
                else rng.choice(("virtual", "virtual", "static", "interface",
                                 "super")))
        body.append(("invoke", kind, ref, rng.random() < 0.08))
        if rng.random() < 0.4:
            body.append(("op", 0x0C, 1))       # move-result-object
        if rng.random() < 0.15:
            body.append(("op", 0x38, 2))       # if-eqz
    extra = rng.random()
    if extra < 0.04:
        body.append(("packed", rng.randint(2, 12)))
    elif extra < 0.07:
        body.append(("sparse", rng.randint(2, 10)))
    elif extra < 0.10:
        body.append(("array", rng.choice((1, 2, 4)), rng.randint(4, 64)))
    return body


def _make_dex(rng, spec: AppSpec, n_classes, app_pkg, dex_name, plants,
              crypto_extra, non_ascii_share):
    """Classes for one DEX; `plants` is a list of (pkg kind, ref)."""
    kinds = ("app", "lib", "shrunk", "obf")
    pkg_choices = {
        "app": [app_pkg, app_pkg + ".ui", app_pkg + ".data"],
        "lib": list(LIBRARY_PACKAGES), "shrunk": list(SHRUNK_PACKAGES),
        "obf": list(OBFUSCATED_PACKAGES)}
    classes = []
    kind_of = {}
    used = set()
    for i in range(n_classes):
        kind = rng.choices(kinds, (40, 45, 10, 5))[0] if i >= 4 else kinds[i]
        pkg = rng.choice(pkg_choices[kind])
        name = f"C{i}{rng.choice(_WORDS).title()}"
        if rng.random() < 0.2:
            name += "$" + rng.choice(("Inner", "1", "Companion"))
        full = f"{pkg}.{name}" if pkg else name
        used.add(full)
        kind_of[full] = kind
        n_methods = max(1, round(rng.expovariate(1 / spec.methods_per_class)))
        methods = [MethodSpec("<init>", direct=True)]
        for j in range(n_methods):
            params = tuple(rng.choice((STRING, "I", "J", OBJECT, BYTES))
                           for _ in range(rng.randrange(4)))
            methods.append(MethodSpec(
                f"m{j}{rng.choice(_WORDS)}", rng.choice(("V", "I", STRING)),
                params, direct=rng.random() < 0.2,
                static=rng.random() < 0.3))
        classes.append(ClassSpec(full, methods))

    internal = [(dotted_to_desc(c.name), m.name, m.ret, tuple(m.params))
                for c in classes for m in c.methods]
    targets = list(PLAIN_TARGETS) * 3 + internal

    # Plants go to random methods of classes of the planned package kind,
    # or of any class when a small DEX has none of that kind; the expected
    # location follows the class actually chosen.
    by_kind = {k: [c for c in classes if kind_of[c.name] == k] for k in kinds}
    placed: dict = {}
    for kind, ref in plants:
        cls = rng.choice(by_kind[kind] or classes)
        m = rng.choice(cls.methods)
        placed.setdefault(id(m), []).append(ref)
    for cls in classes:
        for m in cls.methods:
            n_inv = max(0, round(rng.gauss(spec.invokes_per_method,
                                           spec.invokes_per_method / 3)))
            m.body = _filler_body(rng, n_inv, targets, placed.get(id(m), ()),
                                  non_ascii_share)
    image = build_dex(classes, extra_refs=crypto_extra)
    return image, kind_of


def _expected_records(image, dex_name, kind_of, tee_of, crypto_of):
    records = []
    invoked: dict = {}
    for caller, ref, off in image.invocations:
        invoked.setdefault(ref, []).append((caller, off))
        det = tee_of.get(ref)
        if det:
            records.append((det, ref, caller, off))
    for i, ref in enumerate(image.method_keys):
        det = crypto_of.get(ref)
        if not det:
            continue
        calls = invoked.get(ref)
        if calls:
            records += [(det, ref, caller, off) for caller, off in calls]
        else:
            records.append((det, ref, "", image.method_ids_off + 8 * i))
    out = []
    for det, ref, caller, off in records:
        if caller:
            location = _location(kind_of[caller])
            package = _class_package(caller)
        else:
            location, package = "obfuscated", ""
        out.append({
            "detector": det,
            "target_class": ref[0][1:-1].replace("/", "."),
            "target_method": ref[1],
            "caller_class": caller,
            "dex_file": dex_name,
            "code_offset": off,
            "location": location,
            "package": package,
        })
    return out


def _zip(entries) -> bytes:
    """(name, bytes, stored) entries into an archive, in order."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data, stored in entries:
            info = zipfile.ZipInfo(name, date_time=(2023, 1, 1, 0, 0, 0))
            zf.writestr(info, data, compress_type=(
                zipfile.ZIP_STORED if stored else zipfile.ZIP_DEFLATED),
                compresslevel=6)
    return buf.getvalue()


def build_app(rng: random.Random, spec: AppSpec,
              non_ascii_share: float = 0.04) -> BuiltApp:
    words = rng.sample(_WORDS, 2)
    app_pkg = f"{rng.choice(('com', 'org', 'net', 'io'))}.{words[0]}" \
              f"{rng.randrange(1000)}.{words[1]}"
    tee_of = dict(TEE_TARGETS)
    crypto_of = dict(CRYPTO_REFS)
    crypto_of.update(OVERLOAD_PAIR)

    # Plants per DEX: TEE calls mostly from library code; crypto refs
    # either invoked from anywhere or only pooled.
    n_dex = len(spec.dex_classes)
    dex_plants = [[] for _ in range(n_dex)]
    dex_extra = [[] for _ in range(n_dex)]
    tee_refs = [r for r, _ in TEE_TARGETS]
    tee_w = [_TEE_WEIGHTS[d] for _, d in TEE_TARGETS]
    for _ in range(spec.tee_plants):
        kind = rng.choices(("lib", "app", "shrunk", "obf"), (65, 20, 10, 5))[0]
        dex_plants[rng.randrange(n_dex)].append(
            (kind, rng.choices(tee_refs, tee_w)[0]))
    for ref, _det in rng.sample(CRYPTO_REFS, min(spec.crypto_refs,
                                                 len(CRYPTO_REFS))):
        d = rng.randrange(n_dex)
        if rng.random() < 0.25:
            dex_extra[d].append(ref)
        else:
            for _ in range(rng.randint(1, 4)):
                dex_plants[d].append(
                    (rng.choice(("lib", "app", "lib", "shrunk")), ref))
    if spec.overload:
        for ref, _det in OVERLOAD_PAIR:
            dex_plants[0].append(("app", ref))

    entries = []
    matches = []
    props = {"dex_bytes": 0, "invocations": 0, "method_refs": 0,
             "strings": 0, "non_ascii_strings": 0, "classes": 0}
    for d, n_classes in enumerate(spec.dex_classes):
        dex_name = "classes.dex" if d == 0 else f"classes{d + 1}.dex"
        image, kind_of = _make_dex(rng, spec, n_classes, app_pkg, dex_name,
                                   dex_plants[d], dex_extra[d],
                                   non_ascii_share)
        matches += _expected_records(image, dex_name, kind_of, tee_of,
                                     crypto_of)
        entries.append((dex_name, image.data, False))
        props["dex_bytes"] += len(image.data)
        props["invocations"] += len(image.invocations)
        props["method_refs"] += len(image.method_keys)
        props["strings"] += len(image.strings)
        props["non_ascii_strings"] += sum(1 for s in image.strings
                                          if not s.isascii())
        props["classes"] += n_classes
    matches.sort(key=lambda m: (m["dex_file"], m["code_offset"],
                                m["detector"]))

    permissions = sorted(rng.sample(PERMISSIONS, rng.randint(0, 3)))
    min_sdk = rng.choice((None, 21, 23, 26, 28, 31))
    manifest = manifest_bytes(app_pkg, permissions, min_sdk,
                              label=rng.choice(_WORDS).title())
    native_hits = []
    lib_entries = []
    for stem, library in rng.sample(NATIVE_LIBS, spec.native):
        name = f"lib/{rng.choice(ABIS)}/{stem}"
        lib_entries.append((name, b"\x7fELF\x02\x01\x01" + rng.randbytes(
            rng.randint(20_000, 120_000)), True))
        if library:
            native_hits.append({"library": library, "file": name})

    filler = []
    per_entry = max(1, spec.filler_kb * 1024 // max(1, spec.filler_entries))
    for i in range(spec.filler_entries):
        size = rng.randint(per_entry // 2, per_entry * 3 // 2)
        if i % 3 == 0:
            text = (f"<item name=\"{rng.choice(_WORDS)}{i}\">"
                    f"{rng.choice(_WORDS)}</item>\n").encode() * (size // 30)
            filler.append((f"res/values/v{i}.xml", text, False))
        else:
            filler.append((f"res/drawable/i{i}.png",
                           b"\x89PNG\r\n\x1a\n" + rng.randbytes(size), True))
    filler.append(("resources.arsc", struct.pack("<HHI", 2, 12, 0)
                   + rng.randbytes(2048) * 4, False))

    archive = ([("AndroidManifest.xml", manifest, False)] + entries
               + filler + lib_entries
               + [("META-INF/MANIFEST.MF", b"Manifest-Version: 1.0\r\n", False)])
    data = _zip(archive)
    tee = [m for m in matches if m["detector"] in TEE_DETECTORS]
    expected = {
        "meta": {
            "package": app_pkg,
            "status": "ok",
            "permissions": permissions,
            "min_sdk": min_sdk,
            "api_summary": {d: any(m["detector"] == d for m in tee)
                            for d in TEE_DETECTORS},
        },
        "matches": matches,
        "native_libs": native_hits,
        "crypto_libs": sorted({m["detector"] for m in matches
                               if m["detector"] not in TEE_DETECTORS}),
    }
    props.update(apk_bytes=len(data), entries=len(archive),
                 tee_records=len(tee), crypto_records=len(matches) - len(tee))
    return BuiltApp(data=data, package=app_pkg, expected=expected,
                    props=props)


def failure_expected() -> dict:
    """What every failed app's report holds besides its identity."""
    return {
        "meta": {"package": "", "status": "error", "permissions": [],
                 "min_sdk": None,
                 "api_summary": {d: False for d in TEE_DETECTORS}},
        "matches": [], "native_libs": [], "crypto_libs": [],
    }


def package_check(expected: str | None, actual: str) -> str:
    if not expected:
        return "unchecked"
    if expected == actual:
        return "match"
    a, b = expected.split("."), actual.split(".")
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    return "prefix" if long_[:len(short)] == short else "mismatch"


def full_expected(app_expected: dict, sha: str, expected_pkg) -> dict:
    """The deterministic report document (without `message`)."""
    meta = dict(app_expected["meta"])
    meta["sha256"] = sha
    meta["expected_package"] = expected_pkg
    meta["package_name_check"] = (
        package_check(expected_pkg, meta["package"])
        if meta["status"] == "ok" else "unchecked")
    doc = dict(app_expected)
    doc["meta"] = meta
    return doc


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
